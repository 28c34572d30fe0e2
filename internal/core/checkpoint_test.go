package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/provgraph"
	"repro/internal/seclog"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// ckptWriter is the node whose checkpoint the tests below anchor on: an
// honest router of Figure 2 that believes routes from three peers.
const ckptWriter = types.NodeID("c")

// checkpointedMincost runs the Figure 2 network to its horizon, has every
// node append a checkpoint (the writer through write, given its node; nil is
// an honest WriteCheckpoint there too), and then changes the c–d link, so the
// logs go on past the checkpoints with derivations that need the checkpointed
// state. It returns the position of the writer's checkpoint and a StartHint
// that makes every retrieve start at the node's checkpoint.
func checkpointedMincost(t *testing.T, write func(n *core.Node)) (*simnet.Net, *workload.Workload, uint64, types.Time) {
	t.Helper()
	w := adversary.Apps()[0](1)
	cfg := simnet.DefaultConfig()
	cfg.Seed = 1
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(w.Horizon)
	// Every node checkpoints at the same quiet instant, so that audits which
	// start there agree on what lies before them: next to whole-log audits of
	// its peers, which show what it was sent, an anchored node's sends from
	// before its checkpoint would look missing from its log.
	for _, id := range net.Nodes() {
		if id != ckptWriter || write == nil {
			net.Node(id).WriteCheckpoint()
		} else {
			write(net.Node(id))
		}
	}
	n := net.Node(ckptWriter)
	ckSeq := n.Log.Len()
	for _, end := range [][2]types.NodeID{{"c", "d"}, {"d", "c"}} {
		node := net.Node(end[0])
		if err := net.AtNode(end[0], net.Now()+types.Second, func() { _ = node.InsertBase(mincost.Link(end[0], end[1], 1)) }); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(net.Now() + 10*types.Second)
	if n.Log.Len() < ckSeq+5 {
		t.Fatalf("only %d entries follow the checkpoint", n.Log.Len()-ckSeq)
	}
	next, err := n.Log.Entry(ckSeq + 1)
	if err != nil {
		t.Fatal(err)
	}
	return net, w, ckSeq, next.T
}

// auditFrom audits every node from hint and returns the verdict.
func auditFrom(q *core.Querier, net *simnet.Net, hint types.Time) *adversary.Verdict {
	for _, id := range net.Nodes() {
		_ = q.EnsureAudited(id, hint) // a failed audit is in the verdict
	}
	return adversary.AuditAll(q, net.Maintainer)
}

// forgedCheckpoint appends a checkpoint whose digests are honest about a
// machine state the writer chose itself.
func forgedCheckpoint(state func(n *core.Node) []byte) func(n *core.Node) {
	return func(n *core.Node) {
		last, err := n.Log.Entry(n.Log.Len())
		if err != nil {
			panic(err)
		}
		ck := seclog.BuildCheckpoint(cryptoutil.Ed25519SHA256, nil, state(n), core.ExtantsOf(n.Machine))
		n.Log.Append(&seclog.Entry{T: last.T, Type: seclog.ECkpt, Ckpt: ck})
	}
}

// TestAuditFromCheckpoint is §5.6's checkpoint-anchored replay on an honest
// node: a retrieve that starts at a checkpoint restores the machine from it,
// seeds the graph with the extant tuples — the local ones and the ones
// believed from peers — and replays the rest of the log on top, with nothing
// to flag; an Explain that reaches a seeded vertex stops there and says why.
func TestAuditFromCheckpoint(t *testing.T) {
	net, w, ckSeq, hint := checkpointedMincost(t, nil)
	q := net.QuerierFor(w)
	if v := auditFrom(q, net, hint); len(v.StrongNodes()) != 0 {
		t.Errorf("honest deployment audited from its checkpoints: %v\nfailures: %v", v, v.Failures)
	}
	if from, _, _, ok := q.Auditor.AuditedSpan(ckptWriter); !ok || from != ckSeq {
		t.Fatalf("audited from %d (ok=%v), want from the checkpoint at %d", from, ok, ckSeq)
	}
	ck, err := net.Node(ckptWriter).Log.Entry(ckSeq)
	if err != nil {
		t.Fatal(err)
	}
	whole := net.QuerierFor(w)
	explained := 0
	for _, it := range ck.Ckpt.Items {
		if it.Local || len(it.Believed) == 0 {
			continue
		}
		expl, err := q.Explain(ckptWriter, it.Tuple, core.QueryOpts{StartHint: hint})
		if err != nil {
			t.Fatalf("%s: %v", it.Tuple, err)
		}
		v := expl.Vertex
		if !v.FromCheckpoint || v.T2 != provgraph.Forever {
			continue // the link change replaced it after the checkpoint
		}
		explained++
		if v.Type != provgraph.VBelieve || v.Remote != it.Believed[0].Origin || v.T1 != it.Believed[0].Since {
			t.Errorf("%s: seeded root %s, want a believe vertex from %s since %v", it.Tuple, v.ID(), it.Believed[0].Origin, it.Believed[0].Since)
		}
		if len(expl.Children) != 0 || !strings.Contains(expl.Note, "causes in an earlier log segment") {
			t.Errorf("%s: the walk went on past a seeded vertex (%d children, note %q)", it.Tuple, len(expl.Children), expl.Note)
		}
		if expl.Color != provgraph.Black {
			t.Errorf("%s: seeded vertex of an honest node is %v", it.Tuple, expl.Color)
		}
		// Over the whole log the same belief has the same interval and its
		// causes.
		full, err := whole.Explain(ckptWriter, it.Tuple, core.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Vertex.FromCheckpoint || full.Vertex.T1 != v.T1 || len(full.Children) == 0 {
			t.Errorf("%s: whole-log root %s with %d children, want the seeded interval with its causes", it.Tuple, full.Vertex.ID(), len(full.Children))
		}
	}
	t.Logf("%d seeded beliefs explained", explained)
	if explained == 0 {
		t.Fatal("no tuple believed from a peer at the checkpoint is still believed at the head: nothing was checked")
	}
}

// TestCheckpointFaults: the three ways replayCkpt can refuse a checkpoint,
// each provable against the node that wrote it and against nobody else.
func TestCheckpointFaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		write    func(n *core.Node)          // nil: an honest checkpoint
		tamper   func(ck *seclog.Checkpoint) // applied to the copy a retrieve returns
		fromCkpt bool                        // start the writer's audit at the checkpoint
		want     string
	}{
		{
			name: "payload does not match its digests",
			tamper: func(ck *seclog.Checkpoint) {
				ck.MachineState = append([]byte{^ck.MachineState[0]}, ck.MachineState[1:]...)
			},
			fromCkpt: true,
			want:     "checkpoint payload does not match digests",
		},
		{
			name:     "state does not restore",
			write:    forgedCheckpoint(func(*core.Node) []byte { return []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff not a snapshot") }),
			fromCkpt: true,
			want:     "checkpoint state does not restore",
		},
		{
			// A well-formed state the node never was in: the one a machine
			// that has seen nothing would checkpoint.
			name:  "mid-segment checkpoint disagrees with the replayed state",
			write: forgedCheckpoint(func(n *core.Node) []byte { return mincost.Factory()(n.ID).Snapshot() }),
			want:  "checkpoint disagrees with replayed state",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, w, ckSeq, hint := checkpointedMincost(t, tc.write)
			q := net.QuerierFor(w)
			q.Fetch = &responder{Fetcher: q.Fetch, node: ckptWriter,
				answer: func(req core.RetrieveRequest) (*core.RetrieveResponse, error) {
					resp, err := net.Retrieve(ckptWriter, req)
					if err != nil || tc.tamper == nil {
						return resp, err
					}
					seg := *resp.Segment
					seg.Entries = append([]*seclog.Entry(nil), seg.Entries...)
					for i, e := range seg.Entries {
						if e.Type == seclog.ECkpt {
							forged, ck := *e, *e.Ckpt
							tc.tamper(&ck)
							forged.Ckpt = &ck
							seg.Entries[i] = &forged
						}
					}
					return &core.RetrieveResponse{Segment: &seg, NewAuth: resp.NewAuth}, nil
				}}
			if !tc.fromCkpt {
				hint = 0
			}
			v := auditFrom(q, net, hint)
			if got := v.StrongNodes(); !reflect.DeepEqual(got, []types.NodeID{ckptWriter}) {
				t.Errorf("provable evidence against %v, want against %s alone\nfailures: %v\nred: %v", got, ckptWriter, v.Failures, v.RedHosts)
			}
			found := false
			for _, f := range v.Failures {
				found = found || (f.Node == ckptWriter && f.Seq == ckSeq && strings.Contains(f.Reason, tc.want))
			}
			if !found {
				t.Errorf("no failure %q at %s@%d among %v", tc.want, ckptWriter, ckSeq, v.Failures)
			}
		})
	}
}
