package adversary_test

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/simnet"
	"repro/internal/types"
)

// runFigure2 deploys the MinCost network with a plan armed at deploy time
// and runs it to quiescence.
func runFigure2(t *testing.T, plan adversary.Plan) *simnet.Net {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Seed = 1
	cfg.OnNode = plan.Hook()
	net := simnet.New(cfg)
	if err := net.Deploy(mincost.New(mincost.Figure2Topology, types.Second, 30*types.Second)); err != nil {
		t.Fatal(err)
	}
	net.Run(30 * types.Second)
	return net
}

func auditFigure2(t *testing.T, net *simnet.Net) (*adversary.Verdict, *simnet.Net) {
	t.Helper()
	q := net.NewQuerier(mincost.Factory())
	return adversary.AuditAll(q, net.Maintainer), net
}

func TestMutateTuple(t *testing.T) {
	tup := types.MakeTuple("cost", types.N("a"), types.N("d"), types.N("b"), types.I(5))
	m := adversary.MutateTuple(tup)
	if m.Rel != tup.Rel || len(m.Args) != len(tup.Args) {
		t.Fatalf("mutation changed shape: %s -> %s", tup, m)
	}
	if m.Key() == tup.Key() {
		t.Fatalf("mutation is a no-op: %s", m)
	}
	// All-node arguments: the relation is marked instead.
	loc := types.MakeTuple("edge", types.N("a"), types.N("b"))
	if m := adversary.MutateTuple(loc); m.Rel == loc.Rel {
		t.Fatalf("node-only tuple not marked: %s", m)
	}
}

func TestEquivocationNamesOnlyAdversary(t *testing.T) {
	v, _ := auditFigure2(t, runFigure2(t, adversary.Plan{"b": {adversary.Equivocate()}}))
	found := false
	for _, f := range v.Failures {
		if f.Node != "b" {
			t.Errorf("failure implicates %s: %v", f.Node, f)
		}
		if strings.Contains(f.Reason, "equivocation") || strings.Contains(f.Reason, "fork") {
			found = true
		}
	}
	if !found {
		t.Errorf("no equivocation failure recorded: %v", v.Failures)
	}
	if accused := v.FalselyAccused([]types.NodeID{"b"}); len(accused) != 0 {
		t.Errorf("honest nodes accused: %v", accused)
	}
}

func TestWithholdAcksLeavesLeadsNotAccusations(t *testing.T) {
	v, _ := auditFigure2(t, runFigure2(t, adversary.Plan{"b": {adversary.WithholdAcks()}}))
	if len(v.Failures) != 0 {
		t.Errorf("withheld acks produced provable failures: %v", v.Failures)
	}
	if len(v.RedHosts) != 0 {
		t.Errorf("withheld acks produced red vertices on %v", v.RedHosts)
	}
	if len(v.Notes) == 0 {
		t.Fatal("no missing-ack reports")
	}
	for _, n := range v.Notes {
		if n.ID.Dst != "b" {
			t.Errorf("missing-ack note does not involve the adversary: %+v", n)
		}
	}
	if !v.Detected([]types.NodeID{"b"}) {
		t.Error("leads do not implicate the adversary")
	}
}

func TestTruncatedLogIsRejected(t *testing.T) {
	net := runFigure2(t, adversary.Plan{"b": {adversary.TruncateLog()}})
	q := net.NewQuerier(mincost.Factory())
	if err := q.EnsureAudited("b", 0); err != nil {
		t.Fatalf("EnsureAudited: %v", err)
	}
	if !q.Auditor.NodeFailed("b") {
		t.Error("truncated log not recorded as failure")
	}
}

func TestBehaviorsCompose(t *testing.T) {
	// Suppression and forgery armed together on one node: both detection
	// channels must fire, and both hooks must survive the chaining.
	dropped := 0
	plan := adversary.Plan{"b": {
		adversary.Suppress(func(m types.Message) bool {
			if m.Dst != "c" || m.Tuple.Rel != "cost" {
				return false
			}
			dropped++
			return true
		}),
		adversary.Forge(),
	}}
	net := runFigure2(t, plan)
	if dropped == 0 {
		t.Fatal("composed suppression dropped nothing")
	}
	v, _ := auditFigure2(t, net)
	redSend := false
	for _, h := range v.RedHosts {
		if h == "b" {
			redSend = true
		}
	}
	if !redSend {
		t.Errorf("composed behaviors left no red evidence on b: %v", v)
	}
	if accused := v.FalselyAccused([]types.NodeID{"b"}); len(accused) != 0 {
		t.Errorf("honest nodes accused: %v", accused)
	}
}

func TestDormantIsInvisible(t *testing.T) {
	honest := runFigure2(t, nil)
	armed := runFigure2(t, adversary.Plan{"b": {adversary.Dormant()}})
	if got, want := armed.Traffic.TotalBytes(), honest.Traffic.TotalBytes(); got != want {
		t.Errorf("dormant adversary changed traffic: %d != %d", got, want)
	}
	hq := honest.NewQuerier(mincost.Factory())
	aq := armed.NewQuerier(mincost.Factory())
	adversary.AuditAll(hq, honest.Maintainer)
	adversary.AuditAll(aq, armed.Maintainer)
	he, err := hq.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ae, err := aq.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if he.Format() != ae.Format() {
		t.Errorf("dormant adversary perturbed an answer:\n%s\nvs\n%s", he.Format(), ae.Format())
	}
}

func TestCatalogNamesAreUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range adversary.Catalog() {
		if seen[p.Name] {
			t.Errorf("duplicate behavior name %q", p.Name)
		}
		seen[p.Name] = true
		if got := p.New().Name(); got != p.Name {
			t.Errorf("profile %q builds behavior named %q", p.Name, got)
		}
		if _, ok := adversary.ProfileByName(p.Name); !ok {
			t.Errorf("ProfileByName(%q) failed", p.Name)
		}
	}
	if _, ok := adversary.ProfileByName("nope"); ok {
		t.Error("ProfileByName resolved a nonexistent behavior")
	}
}

func TestVerdictAccounting(t *testing.T) {
	v, _ := auditFigure2(t, runFigure2(t, adversary.Plan{"b": {adversary.Suppress(nil)}}))
	strong := v.StrongNodes()
	if len(strong) == 0 {
		t.Fatalf("suppression left no strong evidence: %v", v)
	}
	for _, n := range strong {
		if n != "b" {
			t.Errorf("strong evidence names honest node %s", n)
		}
	}
	if !v.Detected([]types.NodeID{"b"}) {
		t.Error("verdict does not detect the compromised node")
	}
	if v.Detected([]types.NodeID{"e"}) {
		t.Error("verdict detects a node with no evidence")
	}
}

func TestRedVerticesSurfaceInExplanations(t *testing.T) {
	// The graph-level red evidence must reach query answers: a red vertex
	// on the suppressor shows up as FaultyNodes naming only b.
	net := runFigure2(t, adversary.Plan{"b": {adversary.Suppress(func(m types.Message) bool {
		return m.Dst == "c" && m.Tuple.Rel == "cost"
	})}})
	q := net.NewQuerier(mincost.Factory())
	adversary.AuditAll(q, net.Maintainer)
	for _, v := range q.Auditor.Graph().RedVertices() {
		if v.Host != "b" {
			t.Errorf("red vertex on honest node: %s", v.Label())
		}
		if v.Type != provgraph.VSend {
			t.Errorf("suppression flagged a non-send vertex: %s", v.Label())
		}
	}
	if n := len(q.Auditor.Graph().RedVertices()); n == 0 {
		t.Fatal("no red vertices")
	}
}
