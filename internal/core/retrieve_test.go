package core

import (
	"fmt"
	"testing"

	"repro/internal/seclog"
	"repro/internal/types"
)

// TestRetrieveEvidenceAndEndTime is the node side of §5.4's retrieve(v, a):
// for evidence anywhere in the log (or none) and an EndTime anywhere around
// it, the answer runs from the start of the retained log through the later
// of the evidence and the first entry past EndTime, carries a fresh
// authenticator for its end unless the evidence is its end, and verifies
// against the evidence the request named. The same table holds for a
// store-backed log whose hot tail is far smaller than any span asked for,
// and for that log after a restart.
func TestRetrieveEvidenceAndEndTime(t *testing.T) {
	fill := func(n *Node) {
		for i := int64(1); i <= 12; i++ {
			if err := n.InsertBase(ins(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mem := testNode(t, DefaultConfig(), nil)
	fill(mem)

	scfg := DefaultConfig()
	scfg.LogDir, scfg.LogHotTail = t.TempDir(), 2
	stored := testNode(t, scfg, nil)
	fill(stored)
	if stored.Log.ColdEntries() == 0 {
		t.Fatal("a hot tail of 2 evicted nothing")
	}

	rcfg := DefaultConfig()
	rcfg.LogDir, rcfg.LogHotTail = t.TempDir(), 2
	crashed := testNode(t, rcfg, nil)
	fill(crashed)
	if err := crashed.Log.Close(); err != nil {
		t.Fatal(err)
	}
	rcfg.LogRecover = true
	restarted := testNode(t, rcfg, nil)
	defer restarted.Log.Close()
	defer stored.Log.Close()

	for name, n := range map[string]*Node{"memory": mem, "store": stored, "restarted": restarted} {
		first, last := n.Log.FirstSeq(), n.Log.Len()
		if last < 20 {
			t.Fatalf("%s: log of %d entries", name, last)
		}
		at := func(seq uint64) types.Time {
			e, err := n.Log.Entry(seq)
			if err != nil {
				t.Fatal(err)
			}
			return e.T
		}
		dir := NewDirectory()
		dir.Register(n.ID, n.key.Public())
		auditor := NewAuditor(n.cfg, dir, func(self types.NodeID) types.Machine { return &stubMachine{self: self} }, nil)

		evidences := map[string]uint64{"none": 0, "first entry": first, "mid-log": last / 2, "head": last}
		ends := map[string]types.Time{
			"through the head (zero)":  0,
			"before the first entry":   at(first) - 1,
			"the first entry's time":   at(first),
			"a third of the way":       at(last / 3),
			"two thirds of the way":    at(2 * last / 3),
			"the last entry's time":    at(last),
			"after the last entry":     at(last) + types.Second,
			"between two entries' T's": at(last/3) + types.Microsecond,
		}
		for evName, evSeq := range evidences {
			for endName, endTime := range ends {
				t.Run(fmt.Sprintf("%s/evidence %s/end %s", name, evName, endName), func(t *testing.T) {
					evidence := seclog.Authenticator{Node: n.ID}
					if evSeq != 0 {
						var err error
						if evidence, err = n.Log.AuthenticatorAt(evSeq); err != nil {
							t.Fatal(err)
						}
					}
					wantTo := last
					if endTime != 0 {
						// The first entry at or after the evidence past EndTime.
						wantTo = max(evSeq, first)
						for wantTo < last && at(wantTo) <= endTime {
							wantTo++
						}
					}
					resp, err := n.HandleRetrieve(RetrieveRequest{Auth: evidence, EndTime: endTime})
					if err != nil {
						t.Fatal(err)
					}
					if resp.Segment.From != first || resp.Segment.To() != wantTo {
						t.Fatalf("segment [%d..%d], want [%d..%d]", resp.Segment.From, resp.Segment.To(), first, wantTo)
					}
					switch {
					case wantTo == evSeq && resp.NewAuth != nil:
						t.Errorf("a fresh authenticator at %d for a segment that ends at the evidence", resp.NewAuth.Seq)
					case wantTo != evSeq && (resp.NewAuth == nil || resp.NewAuth.Seq != wantTo):
						t.Errorf("fresh authenticator %+v, want one at %d", resp.NewAuth, wantTo)
					}
					p := auditor.Prepare(n.ID, resp, evidence)
					if p.err != nil || !cleanOps(p.ops) {
						t.Fatalf("the answer does not verify against the evidence: %v, ops %+v", p.err, p.ops)
					}
					if p.audited.from != first || p.audited.to() != wantTo {
						t.Errorf("audited [%d..%d], want [%d..%d]", p.audited.from, p.audited.to(), first, wantTo)
					}
				})
			}
		}
	}
}
