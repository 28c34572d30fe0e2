// Package live is what every live (wall-clock, real-socket) driver of an SNP
// deployment shares: the registry of workloads sized for wall-clock runs,
// the deployment parameters every process derives identically from (app,
// Tprop), and the one-node runtime — start or recover a core.Node on a
// transport.Cluster, then drive it tick by tick, firing the node's share of
// the workload's timeline by wall-clock offset. A node is keyed and resumed
// by the rules the simulator uses (workload.Workload.Key and ArmNode), so a
// simulated and a live deployment of one app share a key directory.
// Harness runs N of these nodes in one process on one loopback cluster, a
// supervisor daemon runs one, and audit-side processes (the supervisor's
// parent side, the query frontends) take only the parameters.
package live

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/apps/bgp"
	"repro/internal/apps/chord"
	"repro/internal/apps/mapreduce"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/types"
	"repro/internal/workload"
)

// AppNames lists the workloads AppByName accepts.
func AppNames() []string { return []string{"mincost", "quagga", "chord", "mapreduce"} }

// AppByName builds the named workload: the application's one definition,
// sized so that a deployment converges within a second or two of wall time.
// Each call returns an independent value (per-node driver state such as
// quagga's speakers is private to it), so a daemon and a harness in
// different processes each construct their own.
func AppByName(name string) (*workload.Workload, error) {
	switch name {
	case "mincost":
		return minCostApp(), nil
	case "quagga":
		return quaggaApp(), nil
	case "chord":
		return chordApp(), nil
	case "mapreduce":
		return mapReduceApp(), nil
	}
	return nil, fmt.Errorf("live: unknown app %q (have %v)", name, AppNames())
}

// minCostApp is the §3.3 running example split across processes: routers
// b, c, d with the Figure 2 link costs, router b compromised. Convergence
// is c learning bestCost(@c,d,5).
func minCostApp() *workload.Workload {
	w := mincost.New([]mincost.Edge{{A: "b", B: "d", Cost: 3}, {A: "b", B: "c", Cost: 2}, {A: "c", B: "d", Cost: 5}},
		0, types.Second)
	w.Compromised = []types.NodeID{"b"}
	w.Victim = "d"
	w.Probe = func(n *core.Node) bool {
		return n.ID != "c" || n.Machine.(*dlog.Machine).Lookup(mincost.BestCost("c", "d", 5))
	}
	return w
}

// quaggaApp is a 4-network slice of the paper's Quagga topology: two
// tier-1 peers, the regional provider as30 under both (compromised), and
// the stub as51 under as30. as51 announces p51 and as20 announces p20;
// convergence is each endpoint holding the far prefix.
func quaggaApp() *workload.Workload {
	w, speakers := bgp.New([]bgp.ASLink{
		{A: "as10", B: "as20", RelAB: bgp.Peer},
		{A: "as30", B: "as10", RelAB: bgp.Provider},
		{A: "as30", B: "as20", RelAB: bgp.Provider},
		{A: "as51", B: "as30", RelAB: bgp.Provider},
	}, 40*types.Millisecond, math.MaxInt64, nil) // reconciling until the node is stopped
	w.At("as51", 0, func(n *core.Node) { speakers["as51"].Announce(n, "p51") })
	w.At("as20", 0, func(n *core.Node) { speakers["as20"].Announce(n, "p20") })
	w.Compromised = []types.NodeID{"as30"}
	w.Victim = "as20"
	wantRoute := map[types.NodeID]string{"as10": "p51", "as51": "p20"}
	w.Probe = func(n *core.Node) bool {
		prefix, ok := wantRoute[n.ID]
		if !ok {
			return true
		}
		for t := range n.Machine.(*dlog.Machine).Tuples("advRoute") {
			if t.Args[1].Str == prefix {
				return true
			}
		}
		return false
	}
	return w
}

// chordApp is a five-node ring — four members initialized, chord004 joining
// through the protocol — with the paper's timers shrunk a hundredfold and
// one application lookup per node at half time; chord003 is compromised.
// Convergence is every node holding the result of the lookup it issued.
func chordApp() *workload.Workload {
	p := chord.Params{
		N:              5,
		StabilizeEvery: 500 * types.Millisecond,
		FingerEvery:    500 * types.Millisecond,
		KeepAliveEvery: 100 * types.Millisecond,
		JoinSpread:     300 * types.Millisecond,
		Duration:       2 * types.Second,
		Lookups:        5,
		ProtocolJoins:  1,
	}
	w := chord.New(p)
	w.Compromised = []types.NodeID{chord.NodeName(3)}
	w.Victim = chord.NodeName(1)
	w.Probe = func(n *core.Node) bool {
		for t := range n.Machine.(*dlog.Machine).Tuples("result") {
			if t.Args[4].Int >= chord.LookupEIDBase {
				return true
			}
		}
		return false
	}
	return w
}

// mapReduceApp is a WordCount job of three mappers (one 512-byte split
// each) and two reducers, with mapper map-001 compromised — a mapper, since
// the dataflow is one-way and a reducer never sends. Convergence is every
// reducer having reduced.
func mapReduceApp() *workload.Workload {
	w := mapreduce.New(mapreduce.Job{
		Mappers: 3, Reducers: 2, Splits: workload.Corpus(1, 3, 512),
		StartAt: 100 * types.Millisecond, ReduceAt: 600 * types.Millisecond, Duration: types.Second,
	})
	w.Compromised = []types.NodeID{mapreduce.MapperName(1)}
	w.Victim = mapreduce.MapperName(0)
	reducers := mapreduce.Reducers(w.Nodes)
	w.Probe = func(n *core.Node) bool {
		return !slices.Contains(reducers, n.ID) || len(n.Machine.(*mapreduce.Machine).Outputs()) > 0
	}
	return w
}
