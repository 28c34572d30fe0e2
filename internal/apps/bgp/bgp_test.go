package bgp_test

import (
	"strings"
	"testing"

	"repro/internal/apps/bgp"
	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/provgraph"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

func newNet() *simnet.Net {
	cfg := simnet.DefaultConfig()
	cfg.Core.CheckpointEvery = 0
	return simnet.New(cfg)
}

// announce puts "id originates prefix at t" on id's own timeline.
func announce(w *workload.Workload, speakers map[types.NodeID]*bgp.Speaker, id types.NodeID, at types.Time, prefix string) {
	w.At(id, at, func(n *core.Node) { speakers[id].Announce(n, prefix) })
}

func TestValidateExport(t *testing.T) {
	origin := bgp.Origin("as1", "p1")
	imported := bgp.AdvRoute("as1", "p1", "as2 as0", "as2")
	cases := []struct {
		name string
		head types.Tuple
		body []types.Tuple
		want bool
	}{
		{"origin ok", bgp.AdvRoute("as2", "p1", "as1", "as1"), []types.Tuple{origin}, true},
		{"extension ok", bgp.AdvRoute("as3", "p1", "as1 as2 as0", "as1"), []types.Tuple{imported}, true},
		{"forged shorter path", bgp.AdvRoute("as3", "p1", "as1 as0", "as1"), []types.Tuple{imported}, false},
		{"hijack without origin", bgp.AdvRoute("as3", "p1", "as1", "as1"), []types.Tuple{imported}, false},
		{"wrong prefix", bgp.AdvRoute("as3", "p2", "as1 as2 as0", "as1"), []types.Tuple{imported}, false},
		{"speaks for another", bgp.AdvRoute("as3", "p1", "as9 as2 as0", "as9"), []types.Tuple{imported}, false},
		{"no body", bgp.AdvRoute("as3", "p1", "as1 as2 as0", "as1"), nil, false},
	}
	for _, c := range cases {
		if got := bgp.ValidateExport(bgp.ExportRule, "as1", c.head, c.body); got != c.want {
			t.Errorf("%s: ValidateExport = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRoutesPropagate(t *testing.T) {
	net := newNet()
	w, speakers := bgp.New(bgp.DefaultTopology(), types.Second, 2*types.Minute, nil)
	announce(w, speakers, "as51", 5*types.Second, "10.0.0.0/24")
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * types.Minute)
	// Every other network must know a route to the prefix.
	for _, n := range w.Nodes {
		if n == "as51" {
			continue
		}
		m := net.Node(n).Machine.(*dlog.Machine)
		found := false
		for tup := range m.Tuples("advRoute") {
			if tup.Args[1].Str == "10.0.0.0/24" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no route to the prefix", n)
		}
	}
}

func TestRouteProvenanceClean(t *testing.T) {
	net := newNet()
	w, speakers := bgp.New(bgp.DefaultTopology(), types.Second, 2*types.Minute, nil)
	announce(w, speakers, "as51", 5*types.Second, "10.0.0.0/24")
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * types.Minute)
	// Find as52's believed route and explain it.
	m := net.Node("as52").Machine.(*dlog.Machine)
	var route types.Tuple
	for tup := range m.Tuples("advRoute") {
		if tup.Args[1].Str == "10.0.0.0/24" {
			route = tup
		}
	}
	if route.Rel == "" {
		t.Fatal("as52 has no route")
	}
	q := net.QuerierFor(w)
	expl, err := q.Explain("as52", route, core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v (failures %v)", err, q.Auditor.Failures())
	}
	tree := expl.Format()
	// The chain must reach the true origin.
	if !strings.Contains(tree, "INSERT(as51, origin(@as51,10.0.0.0/24)") {
		t.Errorf("provenance does not reach the origin:\n%s", tree)
	}
	if len(expl.FindColor(provgraph.Red)) != 0 {
		t.Errorf("red vertices on a correct run:\n%s", tree)
	}
}

// TestQuaggaDisappear reproduces the §7.2 Quagga-Disappear query: a route
// visible at a stub disappears because its upstream switched to an
// alternative that its export policy filters out.
func TestQuaggaDisappear(t *testing.T) {
	net := newNet()
	w, speakers := bgp.New(bgp.DefaultTopology(), types.Second, 5*types.Minute, nil)
	// as30 (r1) policy: never export routes that traverse the tier-1 as10,
	// and (mis)prefer routes via as10 when they exist.
	r1 := speakers["as30"]
	r1.ExportFilter = func(to types.NodeID, prefix, path string) bool {
		return strings.Contains(path, "as10")
	}
	// Pin the tier-1's choice to the as40 route so that it actually offers
	// as30 an alternative (its default pick would go via as30 itself and
	// be withheld by poison reverse).
	speakers["as10"].PreferVia("as40")
	announce(w, speakers, "as51", 5*types.Second, "10.0.0.0/24")
	// At t=60s, flip r1's preference to routes via as10 (simulating a
	// traffic-engineering change); the direct customer route is replaced by
	// one the export filter suppresses, so as52 loses its route.
	w.At("as30", 60*types.Second, func(*core.Node) { r1.PreferVia("as10") })
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(5 * types.Minute)

	m := net.Node("as52").Machine.(*dlog.Machine)
	for tup := range m.Tuples("advRoute") {
		if tup.Args[1].Str == "10.0.0.0/24" {
			t.Fatalf("as52 still has a route: %v", tup)
		}
	}
	// Dynamic query: why did the route disappear?
	gone := bgp.AdvRoute("as52", "10.0.0.0/24", "as30 as51", "as30")
	q := net.QuerierFor(w)
	expl, err := q.Explain("as52", gone, core.QueryOpts{Mode: core.ModeDisappear})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	tree := expl.Format()
	// The disappearance must trace through r1's withdrawal.
	if !strings.Contains(tree, "UNDERIVE(as30") && !strings.Contains(tree, "DISAPPEAR(as30") {
		t.Errorf("disappearance not traced to as30:\n%s", tree)
	}
	// Benign misconfiguration: nothing red.
	if len(expl.FindColor(provgraph.Red)) != 0 {
		t.Errorf("red vertices in a benign scenario:\n%s", tree)
	}
}

// TestBadGadget builds the classic BadGadget instance (Griffin et al.): a
// persistently oscillating policy configuration. All nodes are correct, so
// the fluttering route's provenance must be red-free while the oscillation
// itself is visible as repeated appear/disappear pairs (§7.2's
// Quagga-BadGadget query).
func TestBadGadget(t *testing.T) {
	net := newNet()
	links := []bgp.ASLink{
		{A: "as1", B: "as0", RelAB: bgp.Sibling},
		{A: "as2", B: "as0", RelAB: bgp.Sibling},
		{A: "as3", B: "as0", RelAB: bgp.Sibling},
		{A: "as1", B: "as2", RelAB: bgp.Sibling},
		{A: "as2", B: "as3", RelAB: bgp.Sibling},
		{A: "as3", B: "as1", RelAB: bgp.Sibling},
	}
	w, speakers := bgp.New(links, types.Second, 2*types.Minute, nil)
	// Each gadget node prefers the route through its clockwise neighbor
	// over its direct route to as0.
	speakers["as1"].PreferVia("as2")
	speakers["as2"].PreferVia("as3")
	speakers["as3"].PreferVia("as1")
	announce(w, speakers, "as0", 2*types.Second, "10.9.9.0/24")
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * types.Minute)

	// The gadget must oscillate: some node's export to as0's prefix keeps
	// being replaced. Count appear vertices for as1's route at as0... any
	// fluttering advRoute tuple will do.
	q := net.QuerierFor(w)
	if err := q.EnsureAudited("as1", 0); err != nil {
		t.Fatal(err)
	}
	q.Auditor.Finalize()
	g := q.Auditor.Graph()
	flutters := 0
	for _, v := range g.ByHost("as1") {
		if v.Type == provgraph.VAppear && v.Tuple.Rel == "advRoute" {
			flutters++
		}
	}
	if flutters < 6 {
		t.Errorf("expected a fluttering route on as1, saw %d appearances", flutters)
	}
	if len(q.Auditor.Failures()) != 0 {
		t.Errorf("failures in an all-correct gadget: %v", q.Auditor.Failures())
	}
	for _, v := range g.RedVertices() {
		t.Errorf("red vertex in an all-correct gadget: %s", v)
	}
}

// TestRouteHijackDetected has a compromised network announce a prefix it
// neither originates nor learned — S-BGP-style origin misbehavior that the
// maybe-rule validation exposes (§6.3).
func TestRouteHijackDetected(t *testing.T) {
	net := newNet()
	w, speakers := bgp.New(bgp.DefaultTopology(), types.Second, 2*types.Minute, nil)
	announce(w, speakers, "as51", 5*types.Second, "10.0.0.0/24")
	// as61 hijacks the prefix at t=30s: it fires the export maybe rule with
	// a fabricated body (claiming an import that does not exist).
	w.At("as61", 30*types.Second, func(n *core.Node) {
		bogusBody := bgp.AdvRoute("as61", "10.0.0.0/24", "as99", "as99")
		n.InsertMaybe(bgp.ExportRule,
			bgp.AdvRoute("as40", "10.0.0.0/24", "as61 as99", "as61"),
			[]types.Tuple{bogusBody}, nil)
	})
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * types.Minute)

	// The upstream as40 believed the hijacked route; its provenance must
	// show red on as61.
	hijacked := bgp.AdvRoute("as40", "10.0.0.0/24", "as61 as99", "as61")
	q := net.QuerierFor(w)
	expl, err := q.Explain("as40", hijacked, core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	faulty := expl.FaultyNodes()
	found := false
	for _, f := range faulty {
		if f == "as61" {
			found = true
		}
	}
	if !found {
		t.Errorf("hijacker not identified; faulty = %v\n%s", faulty, expl.Format())
	}
}
