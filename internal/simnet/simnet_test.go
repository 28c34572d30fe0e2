package simnet_test

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// figure2 is the Figure 2 MinCost workload; a test adds its own inputs to
// the timeline before it is deployed.
func figure2() *workload.Workload {
	return mincost.New(mincost.Figure2Topology, types.Second, 30*types.Second)
}

// runWorkload deploys w with plan's behaviors armed as the nodes are created
// (the adversary framework's one injection path) and runs it to convergence.
func runWorkload(t *testing.T, w *workload.Workload, plan adversary.Plan) *simnet.Net {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.OnNode = plan.Hook()
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(30 * types.Second)
	return net
}

// runMinCost is runWorkload on the unmodified Figure 2 network.
func runMinCost(t *testing.T, plan adversary.Plan) *simnet.Net {
	t.Helper()
	return runWorkload(t, figure2(), plan)
}

// forgeCheapRoute has b fabricate, once, a bogus cost-1 route to d and
// advertise it to c.
func forgeCheapRoute() adversary.Behavior {
	injected := false
	return adversary.TamperOutputs("forge-cheap-route",
		func(ev types.Event, outs []types.Output) []types.Output {
			if injected || ev.Kind != types.EvIns {
				return outs
			}
			injected = true
			msg := &types.Message{Src: "b", Dst: "c", Pol: types.PolAppear,
				Tuple: mincost.Cost("c", "d", "b", 1), SendTime: ev.Time, Seq: 9999}
			return append(outs, types.Output{Kind: types.OutSend, Msg: msg})
		})
}

// suppressCostToC has b silently drop its cost advertisements to c, counting
// them in *dropped when that is non-nil.
func suppressCostToC(dropped *int) adversary.Behavior {
	return adversary.Suppress(func(m types.Message) bool {
		if m.Dst != "c" || m.Tuple.Rel != "cost" {
			return false
		}
		if dropped != nil {
			*dropped++
		}
		return true
	})
}

func TestMinCostConverges(t *testing.T) {
	net := runMinCost(t, nil)
	// The cheapest path c→d is via b: 2 + 3 = 5 (tie with the direct link).
	q := net.NewQuerier(mincost.Factory())
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v\nfailures: %v", err, q.Auditor.Failures())
	}
	if expl.Vertex.Type != provgraph.VExist || !expl.Vertex.Open() {
		t.Errorf("root vertex = %s, want open exist", expl.Vertex)
	}
	if len(q.Auditor.Failures()) != 0 {
		t.Errorf("failures on a correct run: %v", q.Auditor.Failures())
	}
	// All vertices in the answer must be black (accuracy, Theorem 5).
	if reds := expl.FindColor(provgraph.Red); len(reds) != 0 {
		t.Errorf("red vertices in a correct run: %v", reds[0].Vertex)
	}
	if yellows := expl.FindColor(provgraph.Yellow); len(yellows) != 0 {
		t.Errorf("yellow vertices in a correct run: %s", yellows[0].Vertex)
	}
}

// TestFigure2Structure checks that the provenance tree of bestCost(@c,d,5)
// has the Figure 2 shape: two derivations, one via c's direct link and one
// believed from b, the latter reached through receive/send vertices.
func TestFigure2Structure(t *testing.T) {
	net := runMinCost(t, nil)
	q := net.NewQuerier(mincost.Factory())
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tree := expl.Format()
	for _, want := range []string{
		"EXIST(c, bestCost(@c,@d,5)",
		"DERIVE(c, bestCost(@c,@d,5), R3",
		"BELIEVE-APPEAR(c, b, cost(@c,@d,@b,5)",
		"RECEIVE(c, b, +cost(@c,@d,@b,5)",
		"SEND(b, c, +cost(@c,@d,@b,5)",
		"DERIVE(b, cost(@c,@d,@b,5), R2",
		"INSERT(b, link(@b,@c,2)",
		"INSERT(b, link(@b,@d,3)",
		"INSERT(c, link(@c,@d,5)",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree lacks %q\n%s", want, tree)
		}
	}
	// Two derivations of bestCost(@c,d,5) (Figure 2's two subtrees).
	if got := strings.Count(tree, "DERIVE(c, bestCost(@c,@d,5), R3"); got != 2 {
		t.Errorf("bestCost derivations in tree = %d, want 2\n%s", got, tree)
	}
}

func TestHistoricalAndDynamicQueries(t *testing.T) {
	// At t=60s, the b–d link fails; both endpoints retract it.
	w := figure2()
	w.At("b", 60*types.Second, func(n *core.Node) { n.DeleteBase(mincost.Link("b", "d", 3)) })
	w.At("d", 60*types.Second, func(n *core.Node) { n.DeleteBase(mincost.Link("d", "b", 3)) })
	net := runWorkload(t, w, nil)
	net.Run(90 * types.Second)

	q := net.NewQuerier(mincost.Factory())
	// Historical query: why did bestCost(@c,d,5) exist at t=30s?
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{
		Mode: core.ModeExist, At: 30 * types.Second,
	})
	if err != nil {
		t.Fatalf("historical query: %v", err)
	}
	if expl.Vertex.T1 > 30*types.Second {
		t.Errorf("historical root starts at %v, want <= 30s", expl.Vertex.T1)
	}

	// Dynamic query: why did cost(@c,d,b,5) disappear?
	q2 := net.NewQuerier(mincost.Factory())
	dyn, err := q2.Explain("c", mincost.Cost("c", "d", "b", 5), core.QueryOpts{
		Mode: core.ModeDisappear,
	})
	if err != nil {
		t.Fatalf("dynamic query: %v", err)
	}
	// The disappearance must trace back to b's link deletion.
	tree := dyn.Format()
	if !strings.Contains(tree, "BELIEVE-DISAPPEAR(c, b, cost(@c,@d,@b,5)") {
		t.Errorf("disappearance not traced to belief withdrawal:\n%s", tree)
	}
}

func TestCausalForwardQuery(t *testing.T) {
	net := runMinCost(t, nil)
	q := net.NewQuerier(mincost.Factory())
	// What state was derived from b's link to d?
	expl, err := q.Explain("b", mincost.Link("b", "d", 3), core.QueryOpts{
		Direction: core.Effects,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := expl.Format()
	// The link's effects must include b's bestCost and the shipped cost
	// tuple at c.
	for _, want := range []string{
		"DERIVE(b, cost(@b,@d,@d,3), R1",
		"SEND(b, c, +cost(@c,@d,@b,5)",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("effects tree lacks %q\n%s", want, tree)
		}
	}
}

func TestScopeLimit(t *testing.T) {
	net := runMinCost(t, nil)
	q := net.NewQuerier(mincost.Factory())
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{Scope: 2})
	if err != nil {
		t.Fatal(err)
	}
	var truncated int
	expl.Walk(func(e *core.Explanation) {
		if e.Truncated {
			truncated++
		}
	})
	if truncated == 0 {
		t.Error("scope 2 produced no truncation")
	}
	if expl.Size() > 10 {
		t.Errorf("scoped answer has %d vertices, expected a small tree", expl.Size())
	}
}

func TestSuppressionDetected(t *testing.T) {
	// Router b silently drops its +cost advertisement to c (passive
	// evasion). Replay of b's log must produce a red send vertex.
	dropped := 0
	net := runMinCost(t, adversary.Plan{"b": {suppressCostToC(&dropped)}})
	if dropped == 0 {
		t.Fatal("fault injection dropped nothing")
	}
	q := net.NewQuerier(mincost.Factory())
	if err := q.EnsureAudited("b", 0); err != nil {
		t.Fatal(err)
	}
	q.Auditor.Finalize()
	var redSends int
	for _, v := range q.Auditor.Graph().RedVertices() {
		if v.Type == provgraph.VSend && v.Host == "b" {
			redSends++
		}
	}
	if redSends == 0 {
		t.Error("suppressed send not flagged red")
	}
}

func TestFabricationDetected(t *testing.T) {
	// Router b fabricates a bogus cheap route to d and advertises it to c;
	// its own log is consistent, but replay with the correct machine shows
	// the send was never derived (completeness, Theorem 6).
	net := runMinCost(t, adversary.Plan{"b": {forgeCheapRoute()}})
	// c believed the forged route and now reports an absurd bestCost.
	q := net.NewQuerier(mincost.Factory())
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 1), core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	faulty := expl.FaultyNodes()
	if len(faulty) != 1 || faulty[0] != "b" {
		t.Errorf("faulty nodes = %v, want [b]\n%s", faulty, expl.Format())
	}
	// The red vertex must be b's send (it has no legitimate provenance).
	found := false
	for _, r := range expl.FindColor(provgraph.Red) {
		if r.Vertex.Type == provgraph.VSend && r.Vertex.Host == "b" {
			found = true
		}
	}
	if !found {
		t.Errorf("no red send vertex on b:\n%s", expl.Format())
	}
}

func TestRefusedAuditYieldsYellow(t *testing.T) {
	net := runMinCost(t, adversary.Plan{"b": {adversary.RefuseAudits()}})
	q := net.NewQuerier(mincost.Factory())
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	yellows := expl.FindColor(provgraph.Yellow)
	if len(yellows) == 0 {
		t.Fatalf("no yellow vertices although b refuses audits:\n%s", expl.Format())
	}
	for _, y := range yellows {
		if y.Vertex.Host != "b" {
			t.Errorf("yellow vertex on %s, want only b", y.Vertex.Host)
		}
	}
	// Alice can still identify the unresponsive node.
	if len(q.Auditor.Failures()) != 0 {
		t.Errorf("refusal must not create failures (it is not provable): %v", q.Auditor.Failures())
	}
}

func TestLogTamperDetected(t *testing.T) {
	// b rewrites its history for auditors: every retrieved segment has an
	// ins entry doctored (the hook touches retrieve answers only, so the run
	// itself is the honest one). The chain no longer matches the
	// authenticators b has issued, so the audit must fail with evidence
	// against b.
	net := runMinCost(t, adversary.Plan{"b": {adversary.TamperLog()}})
	q := net.NewQuerier(mincost.Factory())
	if err := q.EnsureAudited("b", 0); err != nil {
		// The node answered (with a doctored log); the failure is recorded,
		// not returned.
		t.Fatalf("EnsureAudited: %v", err)
	}
	if !q.Auditor.NodeFailed("b") {
		t.Error("tampering not recorded as failure")
	}
	if q.Auditor.Audited("b") {
		t.Error("tampered log counted as audited")
	}
}

func TestTrafficMetering(t *testing.T) {
	net := runMinCost(t, nil)
	tr := net.Traffic
	if tr.Messages == 0 || tr.Envelopes == 0 || tr.Acks == 0 {
		t.Fatalf("no traffic metered: %+v", tr)
	}
	if tr.BaselineBytes <= 0 || tr.AuthBytes <= 0 || tr.AckBytes <= 0 {
		t.Errorf("missing category: %+v", tr)
	}
	if tr.Acks != tr.Envelopes {
		t.Errorf("acks = %d, envelopes = %d (every envelope must be acked)", tr.Acks, tr.Envelopes)
	}
	// SNP traffic must exceed baseline (Figure 5 premise).
	if tr.TotalBytes() <= tr.BaselineBytes {
		t.Error("SNP adds no overhead?")
	}
}

func TestNoMaintainerNotificationsOnCorrectRun(t *testing.T) {
	net := runMinCost(t, nil)
	if n := net.Maintainer.Count(); n != 0 {
		t.Errorf("maintainer notifications on a correct run: %d", n)
	}
}

func TestCheckpointsWritten(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Core.CheckpointEvery = 10 * types.Second
	net := simnet.New(cfg)
	if err := net.Deploy(mincost.New(mincost.Figure2Topology, types.Second, 35*types.Second)); err != nil {
		t.Fatal(err)
	}
	net.Run(35 * types.Second)
	stats := net.LogStats()
	if stats.CkptBytes == 0 {
		t.Error("no checkpoint bytes recorded")
	}
	// Replay from the last checkpoint must still answer queries.
	q := net.NewQuerier(mincost.Factory())
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain after checkpointing: %v (failures %v)", err, q.Auditor.Failures())
	}
	if len(expl.FindColor(provgraph.Red)) != 0 {
		t.Errorf("red vertices with checkpoints on a correct run:\n%s", expl.Format())
	}
}
