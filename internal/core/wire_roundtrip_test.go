package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestRetrieveResponseCrossProcessRoundTrip pins the symmetric remote-
// retrieve encoding: a checkpoint-bearing segment serialized to bytes (as a
// TCP fetcher would ship it) must decode in another process and pass a full
// audit — verification against the authenticator, checkpoint payload
// digests, and replay — with no payload side channel. This used to be
// impossible: Entry.MarshalWire emitted digest-only checkpoints while
// UnmarshalWire expected the full-payload form.
func TestRetrieveResponseCrossProcessRoundTrip(t *testing.T) {
	n := fuzzNode(t, "") // 8 inserts with a checkpoint after the 4th
	auth, err := n.LatestAuth()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.HandleRetrieve(core.RetrieveRequest{Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	hasCkpt := false
	for _, e := range resp.Segment.Entries {
		if e.Type == seclog.ECkpt {
			hasCkpt = true
			if e.WireSize() >= len(wire.Encode(e)) {
				t.Errorf("metered (digest) size %d not smaller than full encoding %d",
					e.WireSize(), len(wire.Encode(e)))
			}
		}
	}
	if !hasCkpt {
		t.Fatal("segment carries no checkpoint; the round trip proves nothing")
	}

	// "Other process": only the bytes cross.
	enc := wire.Encode(*resp)
	var remote core.RetrieveResponse
	if err := wire.Decode(enc, &remote); err != nil {
		t.Fatalf("decode in remote process: %v", err)
	}

	// A remote auditor replays the decoded response from scratch.
	dir := core.NewDirectory()
	key, err := cryptoutil.PooledKey(cryptoutil.Ed25519SHA256, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir.Register("n1", key.Public())
	a := core.NewAuditor(core.DefaultConfig(), dir,
		func(types.NodeID) types.Machine { return fuzzMachine{} }, nil)
	if err := a.Commit(a.Prepare("n1", &remote, auth)); err != nil {
		t.Fatalf("audit of decoded response failed: %v", err)
	}
	if fs := a.Failures(); len(fs) != 0 {
		t.Fatalf("audit of decoded response recorded failures: %v", fs)
	}
	if !a.Audited("n1") {
		t.Error("decoded response did not complete the audit")
	}
}

// TestRetrieveRequestRoundTrip covers the request side of the codec.
func TestRetrieveRequestRoundTrip(t *testing.T) {
	req := core.RetrieveRequest{
		Auth: seclog.Authenticator{Node: "n1", Seq: 9, T: 5 * types.Second,
			Hash: []byte{1, 2}, Sig: []byte{3}},
		StartTime: types.Second,
		EndTime:   7 * types.Second,
	}
	var got core.RetrieveRequest
	if err := wire.Decode(wire.Encode(req), &got); err != nil {
		t.Fatal(err)
	}
	if got.Auth.Node != "n1" || got.Auth.Seq != 9 || got.StartTime != req.StartTime || got.EndTime != req.EndTime {
		t.Errorf("round trip = %+v", got)
	}
}
