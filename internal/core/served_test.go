package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// checkServed holds WriteRetrieve to HandleRetrieve for one request: the
// bytes of HandleRetrieve's answer marshalled, or an error from both.
// WriteRetrieve goes first, so that an answer reaching into the store's write
// buffer is flushed by the path under test.
func checkServed(t *testing.T, n *Node, req RetrieveRequest) {
	t.Helper()
	var w wire.Writer
	werr := n.WriteRetrieve(&w, req)
	resp, herr := n.HandleRetrieve(req)
	switch {
	case (werr == nil) != (herr == nil):
		t.Fatalf("%+v: WriteRetrieve error %v, HandleRetrieve error %v", req, werr, herr)
	case herr == nil && !bytes.Equal(w.Bytes(), wire.Encode(*resp)):
		t.Fatalf("%+v: served bytes differ from the encoded answer", req)
	}
}

// checkServedAll runs checkServed over a spread of requests against n's log
// as it stands: the whole log first, then every combination of evidence
// (none, another node's, at the first entry, mid-log, at the head,
// past it) with a StartTime and an EndTime each before, inside and past the
// log, or none.
func checkServedAll(t *testing.T, n *Node) {
	t.Helper()
	checkServed(t, n, RetrieveRequest{})
	first, last := n.Log.FirstSeq(), n.Log.Len()
	mid := (first + last) / 2
	at := func(seq uint64) types.Time {
		e, err := n.Log.Entry(seq)
		if err != nil {
			t.Fatal(err)
		}
		return e.T
	}
	auths := []seclog.Authenticator{{Node: n.ID}, {Node: "other", Seq: last}, {Node: n.ID, Seq: last + 1}}
	for _, seq := range []uint64{first, mid, last} {
		auth, err := n.Log.AuthenticatorAt(seq)
		if err != nil {
			t.Fatal(err)
		}
		auths = append(auths, auth)
	}
	times := []types.Time{0, at(first) - 1, at(mid), at(last) - 1, at(last) + types.Second}
	for _, auth := range auths {
		for _, start := range times {
			for _, end := range times {
				checkServed(t, n, RetrieveRequest{Auth: auth, StartTime: start, EndTime: end})
			}
		}
	}
}

// fillServed gives n count more inserts, a checkpoint every seventh.
func fillServed(t *testing.T, n *Node, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		k := int64(n.Log.Len())
		if k%7 == 0 {
			n.WriteCheckpoint()
			continue
		}
		if err := n.InsertBase(ins(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteRetrieveMatchesHandleRetrieve: the answer a node writes over the
// wire, its stored records copied as they are, is byte for byte the one
// HandleRetrieve builds, marshalled — for an in-memory log and for a stored
// one whose records are hot, in the tail file, in the write buffer, sealed,
// and folded by a compaction; checkpoints and bounded ranges included. A
// TamperRetrieve node writes its doctored answer.
func TestWriteRetrieveMatchesHandleRetrieve(t *testing.T) {
	mem := testNode(t, DefaultConfig(), nil)
	fillServed(t, mem, 40)
	checkServedAll(t, mem)

	cfg := DefaultConfig()
	cfg.LogDir, cfg.LogHotTail = t.TempDir(), 2
	st := testNode(t, cfg, nil)
	defer st.Log.Close()
	st.Log.SetStoreTuning(1, 100) // seal on every sync, never fold
	for range 5 {
		fillServed(t, st, 12)
		if err := st.Log.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fillServed(t, st, 6)
	if err := st.Log.Flush(); err != nil {
		t.Fatal(err)
	}
	fillServed(t, st, 6) // these stay in the write buffer
	if st.Log.StoreTables() < 2 || st.Log.ColdEntries() < 50 {
		t.Fatalf("%d tables, %d cold entries", st.Log.StoreTables(), st.Log.ColdEntries())
	}
	checkServedAll(t, st)

	st.Log.SetStoreTuning(0, 1)
	if err := st.Log.Sync(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); st.Log.StoreTables() > 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction: %d tables", st.Log.StoreTables())
		}
	}
	checkServedAll(t, st)

	st.TamperRetrieve = func(_ RetrieveRequest, resp *RetrieveResponse) (*RetrieveResponse, error) {
		seg := *resp.Segment
		seg.Entries = append([]*seclog.Entry(nil), seg.Entries[1:]...)
		seg.From++
		return &RetrieveResponse{Segment: &seg, NewAuth: resp.NewAuth}, nil
	}
	checkServedAll(t, st)
}
