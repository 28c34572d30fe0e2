package core_test

import (
	"bytes"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// fuzzNode builds a small live node with some history and a checkpoint (no
// network), the target the retrieve fuzzers poke at. With a logDir its log is
// on store, with a hot tail of two and most of it sealed into tables.
func fuzzNode(tb testing.TB, logDir string) *core.Node {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.LogDir, cfg.LogHotTail = logDir, 2
	key, err := cryptoutil.PooledKey(cryptoutil.Ed25519SHA256, 1)
	if err != nil {
		tb.Fatal(err)
	}
	dir := core.NewDirectory()
	dir.Register("n1", key.Public())
	n, err := core.NewNode("n1", cfg, key, dir, core.NewMaintainer(), fuzzClock(), nil, fuzzMachine{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(1); i <= 8; i++ {
		if err := n.InsertBase(types.MakeTuple("t", types.N("n1"), types.I(i))); err != nil {
			tb.Fatal(err)
		}
		if i == 4 {
			n.WriteCheckpoint()
		}
		if i == 6 && n.Log.SetStoreTuning(1, 100) {
			if err := n.Log.Sync(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return n
}

type fuzzMachine struct{}

func (fuzzMachine) Step(types.Event) []types.Output { return nil }
func (fuzzMachine) Snapshot() []byte                { return []byte("state") }
func (fuzzMachine) Restore([]byte) error            { return nil }

func fuzzClock() core.Clock {
	t := types.Time(0)
	return core.ClockFunc(func() types.Time { t += types.Millisecond; return t })
}

// FuzzRetrieveRequest decodes arbitrary bytes as a retrieve request and
// serves it from a live node, in memory and on store: every sequence number
// and timestamp in the request is adversary-controlled, and the node must
// answer or refuse — never panic. Whatever it serves must also survive the
// response codec, and what it writes over the wire (WriteRetrieve) must be
// that answer's encoding, or an error where HandleRetrieve fails.
func FuzzRetrieveRequest(f *testing.F) {
	for _, b := range adversary.WireCorpus().Requests {
		f.Add(b)
	}
	// Hand-crafted extremes: zero, max, and inverted window positions.
	f.Add(wire.Encode(core.RetrieveRequest{
		Auth: seclog.Authenticator{Node: "n1", Seq: ^uint64(0)}, StartTime: -1, EndTime: 1}))
	f.Add(wire.Encode(core.RetrieveRequest{
		Auth: seclog.Authenticator{Node: "n1", Seq: 0}, StartTime: 1 << 62, EndTime: -1 << 62}))
	nodes := []*core.Node{fuzzNode(f, ""), fuzzNode(f, f.TempDir())}
	defer nodes[1].Log.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req core.RetrieveRequest
		if err := wire.Decode(data, &req); err != nil {
			return
		}
		for _, n := range nodes {
			var w wire.Writer
			werr := n.WriteRetrieve(&w, req)
			resp, err := n.HandleRetrieve(req)
			if (werr == nil) != (err == nil) {
				t.Fatalf("WriteRetrieve error %v, HandleRetrieve error %v for %+v", werr, err, req)
			}
			if err != nil {
				continue
			}
			if resp.Segment == nil || len(resp.Segment.Entries) == 0 {
				t.Fatalf("retrieve served an empty segment without error for %+v", req)
			}
			// The served response must round-trip through the symmetric codec
			// (this is what a remote querier would decode).
			enc := wire.Encode(*resp)
			if !bytes.Equal(w.Bytes(), enc) {
				t.Fatalf("written answer differs from the encoded one for %+v", req)
			}
			var back core.RetrieveResponse
			if err := wire.Decode(enc, &back); err != nil {
				t.Fatalf("served response does not round-trip: %v", err)
			}
			if back.Segment.To() != resp.Segment.To() || back.Segment.From != resp.Segment.From {
				t.Fatalf("round-tripped segment range [%d..%d] != served [%d..%d]",
					back.Segment.From, back.Segment.To(), resp.Segment.From, resp.Segment.To())
			}
		}
	})
}
