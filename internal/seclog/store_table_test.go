package seclog

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
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

	// Old table files must be gone from disk (only the live ones remain).
	names, _, err := listTableFiles(dir, "n1", testSuite.HashSize())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != st.StoreTables() {
		t.Fatalf("%d table files on disk, %d live", len(names), st.StoreTables())
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
// content address no longer matches, the walk back from the tail cannot
// reach entry 1, and Open must refuse the store.
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
	names, _, err := listTableFiles(dir, "n1", testSuite.HashSize())
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

// writeTableOf writes, next to l's store, a table holding l's records
// from..to: what a seal or a fold leaves on disk before its commit point.
func writeTableOf(t *testing.T, l *Log, from, to uint64) *tableFile {
	t.Helper()
	var recs []tableRecord
	if err := l.store.records(from, to, func(seq uint64, rec []byte) error {
		hash, metered, ckptSize := l.sealInfo(seq, int64(len(rec)))
		recs = append(recs, tableRecord{addr: hash, rec: append([]byte(nil), rec...), metered: metered, ckptSize: ckptSize})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := writeTable(l.store.dir, l.store.node, testSuite, from, mustHash(t, l, from-1), recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.close(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// exists reports whether path is on disk.
func exists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

// TestStoreOrphanTableCollected: a table off the walk whose records the
// recovered chain holds hash for hash is removed; a file with a table's name
// that does not verify is left in place, and neither blocks Open.
func TestStoreOrphanTableCollected(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	fillBoth(mem, st, 20, 7)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	redundant := writeTableOf(t, st, 5, 12)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, tableFileName("n1", testSuite.Hash([]byte("orphan"))))
	if err := os.WriteFile(junk, []byte("half-written table"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkIdentical(t, re, mem)
	if exists(t, redundant.path) {
		t.Fatal("redundant table not collected")
	}
	if !exists(t, junk) {
		t.Fatal("a file that does not verify was deleted")
	}
}

// TestStoreInterruptedSealRecovered fabricates the on-disk state of a seal
// that crashed before its commit point: the table of records 1..12 is
// durable, but the rotated tail was never published, so the tail still
// holds every record. Open must roll the seal back — the tail keeps records
// 1..16, the orphan table is removed — and serve identically.
func TestStoreInterruptedSealRecovered(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	fillBoth(mem, st, 12, 5)
	if err := st.Sync(); err != nil { // below the seal limit: all in the tail
		t.Fatal(err)
	}
	orphan := writeTableOf(t, st, 1, 12)
	fillBoth(mem, st, 4, 0) // 13..16
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.store.base != 1 || len(re.store.offsets) != 16 || re.StoreTables() != 0 {
		t.Fatalf("tail holds %d records from %d next to %d tables, want 1..16 and none",
			len(re.store.offsets), re.store.base, re.StoreTables())
	}
	if exists(t, orphan.path) {
		t.Fatal("orphan table of the interrupted seal not removed")
	}
	checkIdentical(t, re, mem)
}

// TestStoreFoldCrashRecovered: a fold that crashed before its commit point
// leaves the replacement table durable next to the tables it replaced. Open
// must walk through the replacement, serve a log identical to the in-memory
// twin, and remove the replaced tables.
func TestStoreFoldCrashRecovered(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	for i := 0; i < 3; i++ {
		fillBoth(mem, st, 10, 7)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if !st.SetStoreTuning(1<<30, 1000) { // keep the rest in the tail
		t.Fatal("tuning failed")
	}
	fillBoth(mem, st, 3, 0)
	var replaced []string
	for _, tbl := range st.store.tables {
		replaced = append(replaced, tbl.path)
	}
	folded, err := st.store.foldTables(st.store.tables)
	if err != nil {
		t.Fatal(err)
	}
	if err := folded.close(); err != nil {
		t.Fatal(err)
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
	if n := re.StoreTables(); n != 1 || re.store.tables[0].path != folded.path {
		t.Fatalf("reopened on %d tables, want the fold alone", n)
	}
	for _, path := range replaced {
		if exists(t, path) {
			t.Fatalf("replaced table %s not removed", filepath.Base(path))
		}
	}
}

// TestStoreTailAnchorsChain: the tail header, not whatever tables lie
// around, decides which log a store holds. A previous incarnation's sealed
// tables (entries 1..20) next to a fresh tail based at entry 1 with three
// different records, and no sidecar, open as the tail's three-entry log;
// the other incarnation's tables are neither served nor deleted.
func TestStoreTailAnchorsChain(t *testing.T) {
	old, dir := newStoredTestLog(t, 4)
	sealEvery(t, old, 1000)
	for i := 0; i < 2; i++ {
		fillBoth(nil, old, 10, 7)
		if err := old.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	before, _, err := listTableFiles(dir, "n1", testSuite.HashSize())
	if err != nil || len(before) != 2 {
		t.Fatalf("want the old incarnation's two tables, have %v (%v)", before, err)
	}

	fresh, freshDir := newStoredTestLog(t, 4)
	for i := 1; i <= 3; i++ {
		fresh.Append(insEntry(types.Time(100+i), "other", int64(i)))
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(freshDir, storeFileName("n1")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, storeFileName("n1")), tail, 0o644); err != nil {
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
	if re.Len() != 3 || !bytes.Equal(re.HeadHash(), fresh.HeadHash()) || re.StoreTables() != 0 {
		t.Fatalf("opened %d entries on %d tables, want the tail's 3 and its head", re.Len(), re.StoreTables())
	}
	after, _, err := listTableFiles(dir, "n1", testSuite.HashSize())
	if err != nil || !slices.Equal(after, before) {
		t.Fatalf("the other incarnation's tables went from %v to %v (%v)", before, after, err)
	}
}

// TestStoreTempDebrisRemoved plants the temp files a crash leaves before a
// rename — a table write's, an atomic tail rewrite's and a sidecar
// rewrite's — next to a healthy sealed store. Open removes all three and
// serves the log unchanged; another node's temp file stays.
func TestStoreTempDebrisRemoved(t *testing.T) {
	mem := newTestLog(t)
	st, dir := newStoredTestLog(t, 4)
	sealEvery(t, st, 1000)
	fillBoth(mem, st, 20, 7)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	debris := []string{
		tableFileName("n1", testSuite.Hash([]byte("debris"))) + ".tmp",
		storeFileName("n1") + ".tmp",
		metaFileName("n1") + ".tmp",
	}
	other := tableFileName("n1.x", testSuite.Hash([]byte("debris"))) + ".tmp"
	for _, name := range append(debris, other) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkIdentical(t, re, mem)
	for _, name := range debris {
		if exists(t, filepath.Join(dir, name)) {
			t.Errorf("%s left behind", name)
		}
	}
	if !exists(t, filepath.Join(dir, other)) {
		t.Error("another node's temp file was removed")
	}
}

// TestStoreManifestLossWithTables deletes the sidecar of a sealed store:
// recovery never needed it to find the log — the walk from the tail through
// the self-describing tables (content address + embedded chain linkage)
// still serves everything.
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
// sidecar and then without it, Open must refuse a store whose walk back from
// the tail no longer reaches entry 1 rather than serve the log from a later
// entry.
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
		t.Fatal("Open with the sidecar accepted a store missing its oldest table")
	}
	if err := os.Remove(filepath.Join(dir, metaFileName("n1"))); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err == nil {
		re.Close()
		t.Fatalf("Open without the sidecar served a log from entry %d", re.FirstSeq())
	}
	if !strings.Contains(err.Error(), "lost entries 1..") {
		t.Fatalf("Open without the sidecar: %v, want lost entries 1..k", err)
	}
}

// TestStoreReassemblyStartsAtEntryOne: a compaction that crashed before
// deleting the tables it folded leaves those next to the fold. Whatever
// order the files come in, the walk back from the tail must reach entry 1
// through the fold, not stop at a fragment that ends at the same entry; and
// without the fold, the fragments alone still reach entry 1.
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
	base, baseHash := st.store.base, st.store.baseHash
	for _, cands := range [][]*tableFile{
		{tables[1], tables[2], folded, tables[0]},
		{folded, tables[0], tables[1], tables[2]},
		{tables[2], tables[1], tables[0], folded},
	} {
		if run := walkTables(cands, base, baseHash); len(run) != 1 || run[0] != folded {
			t.Fatalf("walked %d tables, want the fold alone", len(run))
		}
	}
	run := walkTables([]*tableFile{tables[2], tables[0], tables[1]}, base, baseHash)
	if !slices.Equal(run, tables) {
		t.Fatalf("walked %d fragments, want all 3 in order", len(run))
	}
}

// TestStoreGrossRecomputed: the sidecar does not persist the log's gross
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
