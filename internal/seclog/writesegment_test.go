package seclog

import (
	"bytes"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// checkWriteSegment holds WriteSegment to Segment's MarshalWire over every
// range [from..to] around the log: the same bytes where Segment serves one,
// an error where it fails. WriteSegment goes first, so that a
// range reaching into the write buffer is flushed by the path under test.
func checkWriteSegment(t *testing.T, l *Log) {
	t.Helper()
	lo, hi := int(l.FirstSeq())-1, int(l.Len())+1
	for from := max(lo, 0); from <= hi; from++ {
		for to := from - 2; to <= hi; to++ {
			if to < 0 {
				continue
			}
			var w wire.Writer
			werr := l.WriteSegment(&w, uint64(from), uint64(to))
			seg, serr := l.Segment(uint64(from), uint64(to))
			switch {
			case (werr == nil) != (serr == nil):
				t.Fatalf("[%d..%d]: WriteSegment error %v, Segment error %v", from, to, werr, serr)
			case serr == nil && !bytes.Equal(w.Bytes(), wire.Encode(seg)):
				t.Fatalf("[%d..%d]: written bytes differ from the marshalled segment", from, to)
			}
		}
	}
}

// fillCkpt appends n entries to l from time at on: sends and inserts, and a
// checkpoint with a payload every ckptAt-th.
func fillCkpt(l *Log, at, n, ckptAt int) {
	for i := at; i < at+n; i++ {
		var e *Entry
		switch {
		case i%ckptAt == 0:
			e = &Entry{T: types.Time(i), Type: ECkpt, Ckpt: BuildCheckpoint(testSuite, nil, []byte("state"),
				[]ExtantItem{{Tuple: insEntry(0, "a", int64(i)).Tuple, Appeared: types.Time(i), Local: true}})}
		case i%3 == 0:
			e = sndEntry(types.Time(i), uint64(i))
		default:
			e = insEntry(types.Time(i), "a", int64(i))
		}
		l.Append(e)
	}
}

// TestWriteSegmentMatchesSegment: a log writes every segment's wire bytes as
// Segment's MarshalWire does, wherever its entries are — in memory; on store,
// resident in the hot tail, in the tail file, still in the write buffer,
// sealed into tables, folded by a compaction, and reopened.
func TestWriteSegmentMatchesSegment(t *testing.T) {
	mem := newTestLog(t)
	fillCkpt(mem, 1, 40, 7)
	checkWriteSegment(t, mem)

	st, dir := newStoredTestLog(t, 4)
	fillCkpt(st, 1, 40, 7)
	if len(st.store.buf) == 0 || st.ColdEntries() == 0 {
		t.Fatal("the fresh store holds no buffered cold entries")
	}
	checkWriteSegment(t, st)

	sealEvery(t, st, 100) // seal on every sync, never fold
	for at := 41; at < 101; at += 12 {
		fillCkpt(st, at, 12, 7)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fillCkpt(st, 101, 8, 7)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	fillCkpt(st, 109, 8, 7)
	if st.StoreTables() < 2 || st.store.head() < st.store.base || st.store.flushed == st.store.headerLen || len(st.store.buf) == 0 {
		t.Fatalf("want sealed tables, flushed tail records and buffered ones: %d tables, tail from %d to %d",
			st.StoreTables(), st.store.base, st.store.head())
	}
	checkWriteSegment(t, st)

	if !st.SetStoreTuning(0, 1) {
		t.Fatal("not store-backed")
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCompact(st)
	if err := st.CompactErr(); err != nil || st.StoreTables() > 2 {
		t.Fatalf("compaction left %d tables: %v", st.StoreTables(), err)
	}
	checkWriteSegment(t, st)

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "n1", testSuite, testKey(t, 1), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkWriteSegment(t, re)
}
