// Package mincost implements the paper's running example (§3.3): five
// routers finding lowest-cost paths with the MinCost protocol. It is the
// quickstart application and the source of Figure 2's provenance tree.
//
// Rules (in the paper's notation):
//
//	R1: cost(@X,Y,Y,K)        ← link(@X,Y,K)
//	R2: cost(@C,D,B,K1+K2)    ← link(@B,C,K1) ∧ bestCost(@B,D,K2), C ≠ D
//	R3: bestCost(@X,Y,min K)  ← cost(@X,Y,Z,K)
//
// R2 is evaluated at the neighbor B and its head is shipped to C, exactly
// as Figure 2 shows (DERIVE(b, cost(@c,d,b,5), R2) followed by SEND/RECEIVE
// and BELIEVE vertices at c).
package mincost

import (
	"slices"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/types"
	"repro/internal/workload"
)

// Program compiles the MinCost rule set.
func Program() *dlog.Program {
	p := dlog.NewProgram()
	p.Relation("link", 3, false)
	p.Relation("cost", 4, false)
	p.Relation("bestCost", 3, false)
	p.MustAddRule(dlog.Rule{
		Name: "R1",
		Head: dlog.A("cost", dlog.V("X"), dlog.V("Y"), dlog.V("Y"), dlog.V("K")),
		Body: []dlog.Atom{dlog.A("link", dlog.V("X"), dlog.V("Y"), dlog.V("K"))},
	})
	p.MustAddRule(dlog.Rule{
		Name: "R2",
		Head: dlog.A("cost", dlog.V("C"), dlog.V("D"), dlog.V("B"), dlog.V("K")),
		Body: []dlog.Atom{
			dlog.A("link", dlog.V("B"), dlog.V("C"), dlog.V("K1")),
			dlog.A("bestCost", dlog.V("B"), dlog.V("D"), dlog.V("K2")),
		},
		Assigns: []dlog.Assign{{Var: "K", Fn: "add", Args: []dlog.Term{dlog.V("K1"), dlog.V("K2")}}},
		Conds:   []dlog.Cond{{Fn: "ne", Args: []dlog.Term{dlog.V("C"), dlog.V("D")}}},
	})
	p.MustAddRule(dlog.Rule{
		Name: "R3",
		Head: dlog.A("bestCost", dlog.V("X"), dlog.V("Y"), dlog.V("K")),
		Body: []dlog.Atom{dlog.A("cost", dlog.V("X"), dlog.V("Y"), dlog.V("Z"), dlog.V("K"))},
		Agg:  &dlog.Agg{Over: "K", GroupBy: []string{"X", "Y"}},
	})
	return p
}

// Link builds a link(@x,y,k) base tuple.
func Link(x, y types.NodeID, k int64) types.Tuple {
	return types.MakeTuple("link", types.N(x), types.N(y), types.I(k))
}

// Cost builds a cost(@x,y,z,k) tuple.
func Cost(x, y, z types.NodeID, k int64) types.Tuple {
	return types.MakeTuple("cost", types.N(x), types.N(y), types.N(z), types.I(k))
}

// BestCost builds a bestCost(@x,y,k) tuple.
func BestCost(x, y types.NodeID, k int64) types.Tuple {
	return types.MakeTuple("bestCost", types.N(x), types.N(y), types.I(k))
}

// Edge is an undirected link with a cost.
type Edge struct {
	A, B types.NodeID
	Cost int64
}

// Figure2Topology is the five-router network of §3.3. The costs on the
// b–c, b–d and c–d links are the ones the paper's example depends on; the
// remaining edges complete the drawing.
var Figure2Topology = []Edge{
	{"a", "b", 6},
	{"a", "e", 1},
	{"b", "c", 2},
	{"b", "d", 3},
	{"c", "d", 5},
	{"c", "e", 5},
	{"d", "e", 10},
	{"a", "c", 3},
}

// NodesOf returns the sorted set of nodes appearing in edges.
func NodesOf(edges []Edge) []types.NodeID {
	var out []types.NodeID
	for _, e := range edges {
		out = append(out, e.A, e.B)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// New is the MinCost workload over edges: one router per endpoint, each
// inserting its own end of every link at linkTime (both endpoints know
// their local link costs, §3.3), run to horizon.
func New(edges []Edge, linkTime, horizon types.Time) *workload.Workload {
	w := &workload.Workload{Name: "mincost", Nodes: NodesOf(edges), Factory: Factory(), Horizon: horizon}
	for i := range w.Nodes {
		w.KeySeeds = append(w.KeySeeds, int64(i+1))
	}
	for _, e := range edges {
		w.At(e.A, linkTime, func(n *core.Node) { n.InsertBase(Link(e.A, e.B, e.Cost)) })
		w.At(e.B, linkTime, func(n *core.Node) { n.InsertBase(Link(e.B, e.A, e.Cost)) })
	}
	return w
}

// Factory returns the replay machine factory for MinCost.
func Factory() types.MachineFactory { return dlog.Factory(Program()) }
