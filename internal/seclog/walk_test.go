package seclog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// checkWalk holds Walk to Entry: it must yield every entry, 1 through Len, in
// order, each encoding as Entry(seq) does. The encodings are taken inside
// the callback, which may not keep the entry or call into the log.
func checkWalk(t *testing.T, l *Log) {
	t.Helper()
	var got [][]byte
	if err := l.Walk(func(seq uint64, e *Entry) {
		if seq != uint64(len(got))+1 {
			t.Fatalf("walk yielded entry %d after %d", seq, len(got))
		}
		got = append(got, wire.Encode(e))
	}); err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != l.Len() {
		t.Fatalf("walk yielded %d entries of %d", len(got), l.Len())
	}
	for i, enc := range got {
		want, err := l.Entry(uint64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, wire.Encode(want)) {
			t.Fatalf("entry %d: walk and Entry encode differently", i+1)
		}
	}
}

// TestWalkMatchesEntry: Walk yields every entry of a log wherever it lives —
// in memory; on store, sealed into two or more tables, in the tail file, in
// the write buffer, and resident in the hot tail — with checkpoints among
// them.
func TestWalkMatchesEntry(t *testing.T) {
	mem := newTestLog(t)
	fillCkpt(mem, 1, 76, 7)
	checkWalk(t, mem)

	st, _ := newStoredTestLog(t, 4)
	defer st.Close()
	sealEvery(t, st, 100) // seal on every sync, never fold
	for at := 1; at < 61; at += 12 {
		fillCkpt(st, at, 12, 7)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fillCkpt(st, 61, 8, 7)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	fillCkpt(st, 69, 8, 7)
	if st.StoreTables() < 2 || st.store.flushed == st.store.headerLen || len(st.store.buf) == 0 ||
		st.ColdEntries() < st.store.base {
		t.Fatalf("want sealed tables, cold tail records flushed and buffered: %d tables, tail from %d, %d cold",
			st.StoreTables(), st.store.base, st.ColdEntries())
	}
	checkWalk(t, st)
}

// TestWalkReadErrorSticky: a store read that fails mid-walk ends the walk
// there with its error, which the log then reports as its sticky Err.
func TestWalkReadErrorSticky(t *testing.T) {
	st, dir := newStoredTestLog(t, 4)
	defer st.Close()
	sealEvery(t, st, 100)
	fillCkpt(st, 1, 12, 7)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	fillCkpt(st, 13, 12, 7)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// Cut the tail file back to its header: the sealed records still read,
	// the flushed tail records no longer do.
	if err := os.Truncate(filepath.Join(dir, storeFileName("n1")), st.store.headerLen); err != nil {
		t.Fatal(err)
	}
	walked := 0
	err := st.Walk(func(uint64, *Entry) { walked++ })
	if err == nil || walked == 0 || uint64(walked) >= st.ColdEntries() {
		t.Fatalf("walk over a cut tail: %d of %d entries, error %v", walked, st.Len(), err)
	}
	if st.Err() != err {
		t.Fatalf("Err() = %v, want the walk's error %v", st.Err(), err)
	}
}
