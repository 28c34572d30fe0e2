package seclog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// newStoredTestLog creates a store-backed log in a fresh temp dir.
func newStoredTestLog(t *testing.T, hotTail int) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := NewStored(dir, "n1", testSuite, testKey(t, 1), nil, hotTail)
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

// fillBoth appends the same n entries (with a checkpoint at every ckptAt-th
// position) to both logs.
func fillBoth(a, b *Log, n int, ckptAt int) {
	for i := 1; i <= n; i++ {
		var e *Entry
		if ckptAt > 0 && i%ckptAt == 0 {
			e = &Entry{T: types.Time(i), Type: ECkpt,
				Ckpt: BuildCheckpoint(testSuite, nil, []byte("state"), nil)}
		} else if i%3 == 0 {
			e = sndEntry(types.Time(i), uint64(i))
		} else {
			e = insEntry(types.Time(i), "a", int64(i))
		}
		if a != nil {
			a.Append(e)
		}
		if b != nil {
			b.Append(e)
		}
	}
}

func TestStoreBackedMatchesMemory(t *testing.T) {
	mem := newTestLog(t)
	st, _ := newStoredTestLog(t, 4)
	fillBoth(mem, st, 25, 7)

	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != mem.Len() || st.FirstSeq() != mem.FirstSeq() {
		t.Fatalf("shape mismatch: store %d..%d, mem %d..%d", st.FirstSeq(), st.Len(), mem.FirstSeq(), mem.Len())
	}
	if !bytes.Equal(st.HeadHash(), mem.HeadHash()) {
		t.Error("head hashes differ")
	}
	if st.GrossBytes() != mem.GrossBytes() {
		t.Errorf("GrossBytes: store %d, mem %d", st.GrossBytes(), mem.GrossBytes())
	}
	if st.CheckpointBytes() != mem.CheckpointBytes() {
		t.Errorf("CheckpointBytes: store %d, mem %d", st.CheckpointBytes(), mem.CheckpointBytes())
	}
	if st.ColdEntries() == 0 {
		t.Error("hot tail of 4 should have evicted entries to disk")
	}
	// Every entry — hot and cold — must decode to identical bytes.
	for seq := uint64(1); seq <= st.Len(); seq++ {
		se, err := st.Entry(seq)
		if err != nil {
			t.Fatalf("Entry(%d): %v", seq, err)
		}
		me, _ := mem.Entry(seq)
		if !bytes.Equal(wire.Encode(se), wire.Encode(me)) {
			t.Fatalf("entry %d differs between store and memory", seq)
		}
		sh, _ := st.Hash(seq)
		mh, _ := mem.Hash(seq)
		if !bytes.Equal(sh, mh) {
			t.Fatalf("hash %d differs", seq)
		}
	}
	// Segments (which straddle the hot/cold boundary) are byte-identical.
	sSeg, err := st.Segment(1, st.Len())
	if err != nil {
		t.Fatal(err)
	}
	mSeg, _ := mem.Segment(1, mem.Len())
	if !bytes.Equal(wire.Encode(sSeg), wire.Encode(mSeg)) {
		t.Error("full segments differ byte-for-byte")
	}
	if st.LastCheckpointBefore(25) != mem.LastCheckpointBefore(25) {
		t.Error("LastCheckpointBefore differs")
	}
}

func TestStoreCrashRecovery(t *testing.T) {
	live, dir := newStoredTestLog(t, 4)
	fillBoth(nil, live, 30, 10)
	auth, err := live.Authenticator()
	if err != nil {
		t.Fatal(err)
	}
	liveSeg, err := live.Segment(1, live.Len())
	if err != nil {
		t.Fatal(err)
	}

	// Reopen without Close/Sync: a crash after the OS received the appends
	// (Flush writes them out without fsync, like the pre-buffering store's
	// per-append writes). Recovery must replay the file, re-verify the
	// chain, and serve identical bytes.
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, "n1", testSuite, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != live.Len() || rec.FirstSeq() != live.FirstSeq() {
		t.Fatalf("recovered %d..%d, want %d..%d", rec.FirstSeq(), rec.Len(), live.FirstSeq(), live.Len())
	}
	if !bytes.Equal(rec.HeadHash(), live.HeadHash()) {
		t.Error("recovered head hash differs")
	}
	if rec.GrossBytes() != live.GrossBytes() {
		t.Errorf("recovered GrossBytes %d, want %d", rec.GrossBytes(), live.GrossBytes())
	}
	if rec.CheckpointBytes() != live.CheckpointBytes() {
		t.Errorf("recovered CheckpointBytes %d, want %d", rec.CheckpointBytes(), live.CheckpointBytes())
	}
	recSeg, err := rec.Segment(1, rec.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Encode(recSeg), wire.Encode(liveSeg)) {
		t.Error("recovered segment differs from the live log's")
	}
	// The live node's own authenticator still verifies the recovered chain.
	if _, err := recSeg.VerifyAgainst(testSuite, nil, live.key.Public(), auth); err != nil {
		t.Errorf("recovered segment rejected by live authenticator: %v", err)
	}
}

// mustHash is Hash for sequence numbers the test itself produced.
func mustHash(t *testing.T, l *Log, seq uint64) []byte {
	t.Helper()
	h, err := l.Hash(seq)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestStoreTornTailTruncated(t *testing.T) {
	live, dir := newStoredTestLog(t, 0)
	fillBoth(nil, live, 10, 0)
	hash5 := mustHash(t, live, 5)
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the end of the data file.
	path := filepath.Join(dir, storeFileName("n1"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, "n1", testSuite, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 9 {
		t.Fatalf("recovered %d entries, want 9 (torn 10th dropped)", rec.Len())
	}
	if !bytes.Equal(mustHash(t, rec, 5), hash5) {
		t.Error("recovered chain prefix diverges")
	}
}

// TestStoreTornHeaderNamed: a closed store whose tail file is its header
// alone, cut by one byte, is refused with an error naming the file, as
// Open's other refusals do.
func TestStoreTornHeaderNamed(t *testing.T) {
	l, dir := newStoredTestLog(t, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFileName("n1"))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "n1", testSuite, nil, nil, 0); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open over a torn header: error %v, want one naming %s", err, path)
	}
}

// TestStoreCrashLosesOnlyBufferedTail pins the buffered append path's crash
// model: a process crash with an unflushed write buffer loses at most the
// buffered tail; recovery serves a verified prefix of the chain, and the
// synced head (here: never synced) is not violated.
func TestStoreCrashLosesOnlyBufferedTail(t *testing.T) {
	live, dir := newStoredTestLog(t, 0)
	fillBoth(nil, live, 12, 0)
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	prefixHead := mustHash(t, live, 12)
	fillBoth(nil, live, 5, 0) // these stay in the buffer: lost in the "crash"

	rec, err := Open(dir, "n1", testSuite, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 12 {
		t.Fatalf("recovered %d entries, want the 12 flushed ones", rec.Len())
	}
	if !bytes.Equal(rec.HeadHash(), prefixHead) {
		t.Error("recovered head does not match the flushed prefix")
	}
}

// TestStoreSyncCoversBufferedTail pins group commit: Sync must make every
// buffered append durable and recoverable, however large the batch.
func TestStoreSyncCoversBufferedTail(t *testing.T) {
	live, dir := newStoredTestLog(t, 0)
	fillBoth(nil, live, 40, 9)
	if err := live.Sync(); err != nil {
		t.Fatal(err)
	}
	head := live.HeadHash()

	rec, err := Open(dir, "n1", testSuite, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 40 {
		t.Fatalf("recovered %d entries, want 40", rec.Len())
	}
	if !bytes.Equal(rec.HeadHash(), head) {
		t.Error("recovered head differs after group-committed sync")
	}
}

func TestStoreTamperDetected(t *testing.T) {
	live, dir := newStoredTestLog(t, 0)
	fillBoth(nil, live, 10, 0)
	if err := live.Sync(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside an early record: the synced head no longer lies
	// on the replayed chain, which is evidence of tampering, not a crash.
	path := filepath.Join(dir, storeFileName("n1"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "n1", testSuite, nil, nil, 0); err == nil {
		t.Fatal("tampered store accepted")
	}
}

func TestCheckedAccessors(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) *Log
	}{
		{"memory", func(t *testing.T) *Log { return newTestLog(t) }},
		{"store", func(t *testing.T) *Log { l, _ := newStoredTestLog(t, 2); return l }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.mk(t)
			fillBoth(nil, l, 10, 0)
			for _, seq := range []uint64{0, 11, 1 << 60} {
				if _, err := l.Entry(seq); err == nil {
					t.Errorf("Entry(%d): no error", seq)
				}
				if _, err := l.Hash(seq); err == nil && seq != 0 {
					t.Errorf("Hash(%d): no error", seq)
				}
			}
			// h_0 is nil, and servable.
			if h, err := l.Hash(0); err != nil || h != nil {
				t.Errorf("Hash(0) = %x, %v; want nil, nil", h, err)
			}
			if _, err := l.Entry(1); err != nil {
				t.Errorf("Entry(1): %v", err)
			}
			if _, err := l.AuthenticatorAt(0); err == nil {
				t.Error("AuthenticatorAt(0): no error")
			}
			if _, err := l.AuthenticatorAt(99); err == nil {
				t.Error("AuthenticatorAt out of range: no error")
			}
		})
	}
}

func TestVerifyAgainstMalformedSegments(t *testing.T) {
	l := newTestLog(t)
	fillBoth(nil, l, 3, 0)
	auth, _ := l.Authenticator()
	pub := l.key.Public()

	empty := &SegmentData{Node: "n1", From: 1}
	if _, err := empty.VerifyAgainst(testSuite, nil, pub, auth); err == nil {
		t.Error("empty segment accepted")
	}
	seg, _ := l.Segment(1, 3)
	zero := *seg
	zero.From = 0
	if _, err := zero.VerifyAgainst(testSuite, nil, pub, auth); err == nil {
		t.Error("segment with From=0 accepted")
	}
}
