package seclog

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// sealEvery forces the store to seal on every sync and fold aggressively,
// so tiny test logs exercise the table machinery real deployments only
// reach after megabytes of history.
func sealEvery(t *testing.T, l *Log, foldAt int) {
	t.Helper()
	if !l.SetStoreTuning(1, foldAt) {
		t.Fatal("SetStoreTuning on a store-backed log returned false")
	}
}

// waitCompact blocks until any in-flight background compaction finishes.
func waitCompact(l *Log) {
	if l.store != nil {
		l.store.wg.Wait()
	}
}

// checkIdentical asserts two logs agree on shape, hashes, gross accounting,
// every retained entry's wire encoding, and the full retained segment.
func checkIdentical(t *testing.T, got, want *Log) {
	t.Helper()
	if got.FirstSeq() != want.FirstSeq() || got.Len() != want.Len() {
		t.Fatalf("shape mismatch: got %d..%d, want %d..%d", got.FirstSeq(), got.Len(), want.FirstSeq(), want.Len())
	}
	if !bytes.Equal(got.HeadHash(), want.HeadHash()) {
		t.Fatal("head hashes differ")
	}
	if got.GrossBytes() != want.GrossBytes() {
		t.Fatalf("gross bytes: got %d, want %d", got.GrossBytes(), want.GrossBytes())
	}
	if got.CheckpointBytes() != want.CheckpointBytes() {
		t.Fatalf("checkpoint bytes: got %d, want %d", got.CheckpointBytes(), want.CheckpointBytes())
	}
	for seq := want.FirstSeq(); seq <= want.Len(); seq++ {
		ge, err := got.Entry(seq)
		if err != nil {
			t.Fatalf("entry %d: %v", seq, err)
		}
		we, err := want.Entry(seq)
		if err != nil {
			t.Fatalf("entry %d: %v", seq, err)
		}
		if !bytes.Equal(wire.Encode(ge), wire.Encode(we)) {
			t.Fatalf("entry %d differs", seq)
		}
		gh, err := got.Hash(seq)
		if err != nil {
			t.Fatalf("hash %d: %v", seq, err)
		}
		wh, err := want.Hash(seq)
		if err != nil {
			t.Fatalf("hash %d: %v", seq, err)
		}
		if !bytes.Equal(gh, wh) {
			t.Fatalf("hash %d differs", seq)
		}
	}
	gs, err := got.Segment(got.FirstSeq(), got.Len())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Segment(want.FirstSeq(), want.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Encode(gs), wire.Encode(ws)) {
		t.Fatal("retained segments differ")
	}
}

// TestStoreSealedMatchesMemory drives the log through repeated seals and
// checks sealed (mmap-served) history stays bit-identical to an in-memory
// twin, across syncs and across a reopen.
func TestStoreSealedMatchesMemory(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 100) // seal often, never fold
	for i := 0; i < 6; i++ {
		fillBoth(mem, st, 10, 7)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if st.StoreTables() == 0 {
		t.Fatal("no tables sealed despite sealLimit=1")
	}
	if st.ColdEntries() == 0 {
		t.Fatal("expected cold entries")
	}
	checkIdentical(t, st, mem)

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.StoreTables() == 0 {
		t.Fatal("reopened store lost its tables")
	}
	checkIdentical(t, re, mem)

	// And with everything resident (hotTail<=0 decodes sealed history once).
	all, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	if all.ColdEntries() != 0 {
		t.Fatalf("hotTail<=0 left %d cold entries", all.ColdEntries())
	}
	checkIdentical(t, all, mem)
}

// TestStoreCompactionFolds seals many small tables, lets the background
// compactor fold them, and checks nothing observable changed: entries,
// hashes, the synced head, and the sidecar are all bit-identical before and
// after the fold.
func TestStoreCompactionFolds(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	if !st.SetStoreTuning(1, 1000) { // seal every sync, hold off folding
		t.Fatal("tuning failed")
	}
	for i := 0; i < 8; i++ {
		fillBoth(mem, st, 8, 5)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	waitCompact(st)
	if n := st.StoreTables(); n < 8 {
		t.Fatalf("expected >=8 sealed tables, have %d", n)
	}
	headSeq, headHash := st.SyncedHead()

	// Lower the fold threshold and sync once: the compactor must fold.
	if !st.SetStoreTuning(0, 1) {
		t.Fatal("tuning failed")
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCompact(st)
	if err := st.CompactErr(); err != nil {
		t.Fatalf("compaction failed: %v", err)
	}
	if n := st.StoreTables(); n > 2 {
		t.Fatalf("fold left %d tables", n)
	}
	// Compaction must not move the synced head off-chain.
	if h2, hash2 := st.SyncedHead(); h2 != headSeq || !bytes.Equal(hash2, headHash) {
		t.Fatalf("compaction moved the synced head: %d -> %d", headSeq, h2)
	}
	if sHead, sHash, ok, err := ReadSidecar(dir, "n1"); err != nil || !ok || sHead != headSeq || !bytes.Equal(sHash, headHash) {
		t.Fatalf("sidecar moved under compaction: ok=%v err=%v head=%d", ok, err, sHead)
	}
	checkIdentical(t, st, mem)

	// Old table files must be gone from disk (only referenced ones remain).
	names, err := listTableFiles(dir, "n1", testSuite.HashSize())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != st.StoreTables() {
		t.Fatalf("%d table files on disk, %d referenced", len(names), st.StoreTables())
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkIdentical(t, re, mem)
}

// TestStoreTamperedTableRejected flips a byte in a sealed table file: the
// content address no longer matches and Open must refuse the store (the
// manifest vouches for the sealed range).
func TestStoreTamperedTableRejected(t *testing.T) {
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	fillBoth(nil, st, 20, 7)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if st.StoreTables() == 0 {
		t.Fatal("no tables sealed")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listTableFiles(dir, "n1", testSuite.HashSize())
	if err != nil || len(names) == 0 {
		t.Fatalf("tables on disk: %v, %v", names, err)
	}
	path := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4); err == nil {
		t.Fatal("Open accepted a tampered table file")
	}
}

// TestStoreOrphanTableCollected plants an unreferenced table file (the
// footprint of a seal or compaction that crashed before its manifest swap)
// and checks Open removes it and recovers cleanly.
func TestStoreOrphanTableCollected(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	fillBoth(mem, st, 20, 7)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, tableFileName("n1", testSuite.Hash([]byte("orphan"))))
	if err := os.WriteFile(orphan, []byte("half-written table"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkIdentical(t, re, mem)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan table not collected: %v", err)
	}
}

// TestStoreInterruptedSealRecovered fabricates the on-disk state of a seal
// that crashed after the manifest swap but before the tail rotation: the
// tail still holds every record the fresh table also holds. Open must skip
// the duplicates, finish the rotation, and serve identically.
func TestStoreInterruptedSealRecovered(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	fillBoth(mem, st, 12, 5)
	if err := st.Sync(); err != nil { // seals 1..12, rotates tail to base 13
		t.Fatal(err)
	}
	if !st.SetStoreTuning(1<<30, 1000) { // keep the rest in the tail
		t.Fatal("tuning failed")
	}
	fillBoth(mem, st, 4, 0) // 13..16 live in the new tail
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebuild the pre-rotation tail: header at base 1 with no base hash,
	// then all 16 records — the sealed 12 framed from the table file, the
	// post-seal 4 from the current tail.
	names, err := listTableFiles(dir, "n1", testSuite.HashSize())
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one table, have %v (%v)", names, err)
	}
	tbl, err := openTable(filepath.Join(dir, names[0]), "n1", testSuite, nil)
	if err != nil {
		t.Fatal(err)
	}
	var region []byte
	var hdr [binary.MaxVarintLen64]byte
	for seq := tbl.base; seq <= tbl.end(); seq++ {
		rec := tbl.record(seq)
		n := binary.PutUvarint(hdr[:], uint64(len(rec)))
		region = append(region, hdr[:n]...)
		region = append(region, rec...)
	}
	tailPath := filepath.Join(dir, storeFileName("n1"))
	tailRaw, err := os.ReadFile(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(tailRaw)
	r.Raw(len(storeMagic))
	_ = r.String()
	r.Uint()
	r.BytesField()
	region = append(region, tailRaw[len(tailRaw)-r.Remaining():]...)
	if err := tbl.close(); err != nil {
		t.Fatal(err)
	}

	w := wire.NewWriter(64)
	w.Raw(storeMagic)
	w.String("n1")
	w.Uint(1)
	w.BytesField(nil)
	if err := os.WriteFile(tailPath, append(w.Bytes(), region...), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, re, mem)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// The healed tail must start past the sealed range again.
	again, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if base := again.store.base; base != tbl.end()+1 {
		t.Fatalf("tail not re-rotated: base=%d, want %d", base, tbl.end()+1)
	}
	checkIdentical(t, again, mem)
}

// TestStoreManifestLossWithTables deletes the manifest of a sealed store:
// recovery must reassemble the table chain from the self-describing files
// (content address + embedded chain linkage) and still serve everything.
func TestStoreManifestLossWithTables(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	for i := 0; i < 3; i++ {
		fillBoth(mem, st, 10, 7)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if st.StoreTables() < 3 {
		t.Fatalf("expected >=3 tables, have %d", st.StoreTables())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, metaFileName("n1"))); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkIdentical(t, re, mem)
}

// TestStoreLostOldestTableRefused removes the table holding entry 1: with the
// manifest, which references the table, and then without it, when recovery
// reassembles whatever verifies on disk, Open must refuse a store that no
// longer starts at entry 1 rather than serve the log from a later entry.
func TestStoreLostOldestTableRefused(t *testing.T) {
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	for i := 0; i < 3; i++ {
		fillBoth(nil, st, 10, 7)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if st.StoreTables() < 3 {
		t.Fatalf("expected >=3 tables, have %d", st.StoreTables())
	}
	oldest := st.store.tables[0].path
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(oldest); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4); err == nil {
		t.Fatal("Open with the manifest accepted a store missing its oldest table")
	}
	if err := os.Remove(filepath.Join(dir, metaFileName("n1"))); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err == nil {
		re.Close()
		t.Fatalf("Open without the manifest served a log from entry %d", re.FirstSeq())
	}
	if !strings.Contains(err.Error(), "lost entries 1..") {
		t.Fatalf("Open without the manifest: %v, want lost entries 1..k", err)
	}
}

// TestStoreReassemblyStartsAtEntryOne: without a manifest, recovery chains
// the tables that verify, and a compaction that crashed before deleting the
// tables it folded leaves those next to the fold. Whatever order the files
// come in, the chain must start at entry 1, not at a fragment that happens to
// reach the same end.
func TestStoreReassemblyStartsAtEntryOne(t *testing.T) {
	st, _ := newStoredTestLog(t, 4)
	defer st.Close()
	sealEvery(t, st, 1000)
	for i := 0; i < 3; i++ {
		fillBoth(nil, st, 10, 7)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	tables := st.store.tables
	if len(tables) != 3 {
		t.Fatalf("want 3 sealed tables, have %d", len(tables))
	}
	folded, err := st.store.foldTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	defer folded.close()
	chain := assembleTableChain([]*tableFile{tables[1], tables[2], folded, tables[0]})
	if len(chain) == 0 {
		t.Fatal("reassembled no chain")
	}
	if chain[0].base != 1 || chain[len(chain)-1].end() != folded.end() {
		t.Fatalf("reassembled %d..%d, want 1..%d", chain[0].base, chain[len(chain)-1].end(), folded.end())
	}
}

// TestStoreGrossRecomputed: the manifest does not persist the log's gross
// byte count, so Open recomputes it from the tables' and the tail's metered
// sizes. After seals, a fold, a torn tail and a reopen, it must equal what
// the live log metered for the entries that survived, checkpoints (metered
// in digest form, stored in full) included.
func TestStoreGrossRecomputed(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	for i := 0; i < 4; i++ {
		fillBoth(mem, st, 10, 7)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if !st.SetStoreTuning(1<<30, 1) { // fold on the next sync, seal no more
		t.Fatal("tuning failed")
	}
	fillBoth(mem, st, 9, 4) // tail records, a checkpoint among them
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCompact(st)
	if err := st.CompactErr(); err != nil || st.StoreTables() != 1 {
		t.Fatalf("fold left %d tables: %v", st.StoreTables(), err)
	}
	if st.GrossBytes() != mem.GrossBytes() {
		t.Fatalf("live gross %d, in-memory twin %d", st.GrossBytes(), mem.GrossBytes())
	}
	// One more record, flushed but never synced, then torn by a crash.
	fillBoth(nil, st, 1, 0)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFileName("n1"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if re.RecoveredTornBytes() == 0 {
		t.Fatal("no torn tail recovered")
	}
	checkIdentical(t, re, mem)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	checkIdentical(t, again, mem)
}
