// Package live is what every live (wall-clock, real-socket) driver of an SNP
// deployment shares: the workload registry in node-local form, the
// deployment parameters every process must derive identically from (app,
// seed, Tprop), and the one-node runtime — start or recover a core.Node on a
// transport.Cluster, then drive it tick by tick. livetcp runs N of these
// nodes in one process, a supervisor daemon runs one, and audit-side
// processes (multiproc's parent, the query frontends) take only the
// parameters.
package live

import (
	"fmt"

	"repro/internal/apps/bgp"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/types"
)

// App is one workload from a single node's point of view: every callback
// touches only the local node — it seeds its own base tuples, steps its own
// protocol proxy, and probes its own convergence condition — and the pieces
// only meet over the network. That is the only form a multi-process
// deployment can run, and a one-process harness simply runs one per node.
type App struct {
	Name        string
	Nodes       []types.NodeID
	Compromised []types.NodeID
	// Victim is the honest node fault-injection suites cut off with a
	// one-way partition: chosen so its own sends still propagate (outbound
	// stays open) and the compromised node stays on the audit paths.
	Victim  types.NodeID
	Factory types.MachineFactory

	// Start seeds the node-local share of the workload once, on a fresh
	// (non-recovery) start. May be nil.
	Start func(n *core.Node) error
	// Recovered re-derives node-local driver state from the recovered
	// machine after a crash restart. May be nil.
	Recovered func(n *core.Node)
	// Step drives periodic node-local application work; tick counts from 1.
	// May be nil.
	Step func(n *core.Node, tick int)
	// Probe reports the node-local convergence condition (true for nodes
	// with nothing to wait for); served through the transport's health RPC.
	Probe func(n *core.Node) bool
	// ConfigureQuerier installs app-specific audit hooks on the auditing
	// process's querier. May be nil.
	ConfigureQuerier func(q *core.Querier)
}

// AppNames lists the workloads AppByName accepts.
func AppNames() []string { return []string{"mincost", "quagga"} }

// AppByName builds the named workload. Each call returns an independent
// driver (quagga's per-node speakers are private to the returned value), so
// a daemon and a harness in different processes each construct their own.
func AppByName(name string) (App, error) {
	switch name {
	case "mincost":
		return minCostApp(), nil
	case "quagga":
		return quaggaApp(), nil
	}
	return App{}, fmt.Errorf("live: unknown app %q (have %v)", name, AppNames())
}

// minCostApp is the §3.3 running example split across processes:
// routers b, c, d with the Figure 2 link costs, router b compromised. Each
// router inserts only its own endpoint of each link, and convergence is c
// learning bestCost(@c,d,5).
func minCostApp() App {
	links := map[types.NodeID][]types.Tuple{
		"b": {mincost.Link("b", "d", 3), mincost.Link("b", "c", 2)},
		"c": {mincost.Link("c", "b", 2), mincost.Link("c", "d", 5)},
		"d": {mincost.Link("d", "b", 3), mincost.Link("d", "c", 5)},
	}
	return App{
		Name:        "mincost",
		Nodes:       []types.NodeID{"b", "c", "d"},
		Compromised: []types.NodeID{"b"},
		Victim:      "d",
		Factory:     mincost.Factory(),
		Start: func(n *core.Node) error {
			for _, l := range links[n.ID] {
				if err := n.InsertBase(l); err != nil {
					return err
				}
			}
			return nil
		},
		Probe: func(n *core.Node) bool {
			if n.ID != "c" {
				return true
			}
			return n.Machine.(*dlog.Machine).Lookup(mincost.BestCost("c", "d", 5))
		},
	}
}

// quaggaApp is a 4-network slice of the paper's Quagga topology, one
// speaker per node: two tier-1 peers, the regional provider as30 under both
// (compromised), and the stub as51 under as30. as51 announces p51 and as20
// announces p20; convergence is each endpoint holding the far prefix.
func quaggaApp() App {
	links := []bgp.ASLink{
		{A: "as10", B: "as20", RelAB: bgp.Peer},
		{A: "as30", B: "as10", RelAB: bgp.Provider},
		{A: "as30", B: "as20", RelAB: bgp.Provider},
		{A: "as51", B: "as30", RelAB: bgp.Provider},
	}
	rels := bgp.Relations(links)
	announces := map[types.NodeID]string{"as51": "p51", "as20": "p20"}
	wantRoute := map[types.NodeID]string{"as10": "p51", "as51": "p20"}
	speakers := make(map[types.NodeID]*bgp.Speaker)
	speakerFor := func(id types.NodeID) *bgp.Speaker {
		if speakers[id] == nil {
			speakers[id] = bgp.NewSpeaker(id, rels[id])
		}
		return speakers[id]
	}
	return App{
		Name:        "quagga",
		Nodes:       []types.NodeID{"as10", "as20", "as30", "as51"},
		Compromised: []types.NodeID{"as30"},
		Victim:      "as20",
		Factory:     bgp.Factory(),
		Start: func(n *core.Node) error {
			if prefix, ok := announces[n.ID]; ok {
				speakerFor(n.ID).Announce(n, prefix)
			}
			return nil
		},
		Recovered: func(n *core.Node) {
			// A fresh process over a recovered log: re-seed the speaker's
			// origins from the machine so a node that crashed mid-
			// convergence keeps originating its prefix.
			speakerFor(n.ID).Recover(n)
		},
		Step: func(n *core.Node, tick int) {
			// Reconcile every few ticks: Sync diffs desired exports against
			// proxy state, so extra calls are cheap but not free.
			if tick%4 == 0 {
				speakerFor(n.ID).Sync(n)
			}
		},
		Probe: func(n *core.Node) bool {
			prefix, ok := wantRoute[n.ID]
			if !ok {
				return true
			}
			for _, t := range n.Machine.(*dlog.Machine).TuplesOf("advRoute") {
				if t.Args[1].Str == prefix {
					return true
				}
			}
			return false
		},
		ConfigureQuerier: func(q *core.Querier) {
			q.Auditor.Builder.MaybeValidator = bgp.ValidateExport
		},
	}
}
