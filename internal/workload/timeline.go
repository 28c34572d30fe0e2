package workload

import (
	"repro/internal/core"
	"repro/internal/types"
)

// Workload is one application deployment, defined once and run by every
// driver: the simulator (simnet.Net.Deploy), the one-process TCP harness
// and the node daemons (both through live.Node). It is a set of node-local
// timelines — every action touches only the node it is handed, and the
// pieces meet over the network alone — which is the only form a
// multi-process deployment can run and the form the simulator's per-node
// event shards want anyway. Each application package exports one
// constructor; what differs between an evaluation run, a conformance app
// and a live registry entry is the sizing passed to it and the fields a
// caller sets afterwards (Compromised, Victim, Probe).
type Workload struct {
	Name string
	// Nodes is the canonical node list: the order nodes are created in and
	// the index live deployments derive keys by. KeySeeds[i] is the key
	// seed of Nodes[i] under the simulator, which pools keys by seed.
	Nodes    []types.NodeID
	KeySeeds []int64
	// Factory builds a node's state machine, for the node itself and for
	// every replay of its log.
	Factory types.MachineFactory
	// Timeline holds each node's actions. Every driver fires them by due
	// time, then in the order their firings were armed: the entries in
	// slice order at the start, and each later firing of a periodic action
	// when the one before it fires. So an action due at an instant where a
	// periodic action fires again runs before that firing, wherever it sits
	// in the slice. Build it with At and Every.
	Timeline map[types.NodeID][]Action
	// Horizon is when the last scheduled action is over; the simulator
	// runs to it, wall-clock drivers wait on Probe instead.
	Horizon types.Time

	// Compromised names the nodes adversary behaviors are armed on.
	Compromised []types.NodeID
	// Victim is the honest node fault-injection suites cut off with a
	// one-way partition: chosen so its own sends still propagate (outbound
	// stays open) and the compromised node stays on the audit paths.
	Victim types.NodeID

	// Recovered re-derives node-local driver state from the recovered
	// machine after a crash restart. May be nil.
	Recovered func(n *core.Node)
	// Probe reports the node-local convergence condition (true for nodes
	// with nothing to wait for); served through the transport's health RPC.
	// May be nil: converged.
	Probe func(n *core.Node) bool
	// ConfigureQuerier installs app-specific audit hooks on an auditing
	// process's querier. May be nil.
	ConfigureQuerier func(q *core.Querier)
}

// Action is one entry of a node's timeline. Times are offsets from the
// start of the run: virtual time under the simulator, wall-clock time since
// the node was seeded under a live driver.
type Action struct {
	At types.Time
	// Every > 0 repeats the action at At, At+Every, … while that is before
	// Until; zero fires it once.
	Every, Until types.Time
	Do           func(n *core.Node)
}

// At appends a one-shot action to id's timeline.
func (w *Workload) At(id types.NodeID, t types.Time, do func(*core.Node)) { w.Every(id, t, 0, 0, do) }

// Every appends a periodic action to id's timeline: it fires at start,
// start+interval, … while that is before until.
func (w *Workload) Every(id types.NodeID, start, interval, until types.Time, do func(*core.Node)) {
	if w.Timeline == nil {
		w.Timeline = make(map[types.NodeID][]Action)
	}
	w.Timeline[id] = append(w.Timeline[id], Action{At: start, Every: interval, Until: until, Do: do})
}

// NewQuerier builds an audit session for this workload over fetch: logs
// replay through Factory, evidence is scored against maint, and the
// workload's audit hooks are installed.
func (w *Workload) NewQuerier(cfg core.Config, dir *core.Directory, maint *core.Maintainer, fetch core.Fetcher) *core.Querier {
	q := core.NewQuerier(core.NewAuditor(cfg, dir, w.Factory, maint), fetch)
	if w.ConfigureQuerier != nil {
		w.ConfigureQuerier(q)
	}
	return q
}
