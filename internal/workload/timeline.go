package workload

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/cryptoutil"
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
	// Nodes is the canonical node list, the order nodes are created in.
	// KeySeeds[i] is the key seed of Nodes[i] under every driver (Key), so
	// a process that lists the nodes knows the whole key directory.
	Nodes    []types.NodeID
	KeySeeds []int64
	// Factory builds a node's state machine, for the node itself and for
	// every replay of its log.
	Factory types.MachineFactory
	// Timeline holds each node's actions, built with At and Every. Every
	// driver arms a node's share through ArmNode, in slice order, into the
	// node's Queue, which fires them by due time, then in arming order: a
	// periodic action's next firing is armed when the one before it fires.
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
	// machine after a crash restart; ArmNode calls it under every driver.
	// May be nil.
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

// Check reports a node without exactly one key seed, and a timeline entry
// for a node the workload does not list, which no driver would ever fire.
func (w *Workload) Check() error {
	if len(w.KeySeeds) != len(w.Nodes) {
		return fmt.Errorf("workload: %s has %d key seeds for %d nodes", w.Name, len(w.KeySeeds), len(w.Nodes))
	}
	for _, id := range slices.Sorted(maps.Keys(w.Timeline)) {
		if !slices.Contains(w.Nodes, id) {
			return fmt.Errorf("workload: %s schedules actions on %s, which is not one of its nodes", w.Name, id)
		}
	}
	return nil
}

// Key is the private key of Nodes[i], the one every driver gives it: the
// pooled deterministic key of KeySeeds[i].
func (w *Workload) Key(suite cryptoutil.Suite, i int) (cryptoutil.PrivateKey, error) {
	return cryptoutil.PooledKey(suite, w.KeySeeds[i])
}

// ArmNode hands n's share of the timeline to arm, in slice order. On a
// fresh start that is all of it. After a crash recovery the app first
// re-derives its driver state from the recovered machine (Recovered), and
// then only the periodic actions are armed: the one-shot inputs are already
// in the recovered log. So under every driver a one-shot action that was
// due after the crash is dropped, and a restarted node resumes its periodic
// work alone.
func (w *Workload) ArmNode(n *core.Node, recovered bool, arm func(Action)) {
	if recovered && w.Recovered != nil {
		w.Recovered(n)
	}
	for _, a := range w.Timeline[n.ID] {
		if !recovered || a.Every > 0 {
			arm(a)
		}
	}
}

// Queue is one node's armed firings, the one interpreter of its timeline:
// the simulator and the live runtime arm its actions, ask Next when the
// earliest is due and Fire at their own now, so the queue reads no clock.
// The zero value is empty.
type Queue struct {
	armed []Action // by due time (At), then arming order
}

// Arm queues a's next firing, due at a.At, behind every firing already
// armed for that instant. A periodic action with no firing left before
// Until is dropped.
func (q *Queue) Arm(a Action) {
	if a.Every > 0 && a.At >= a.Until {
		return
	}
	i := sort.Search(len(q.armed), func(i int) bool { return q.armed[i].At > a.At })
	q.armed = slices.Insert(q.armed, i, a)
}

// Next reports when the earliest armed firing is due; false when none is.
func (q *Queue) Next() (types.Time, bool) {
	if len(q.armed) == 0 {
		return 0, false
	}
	return q.armed[0].At, true
}

// Fire runs on n every firing due at or before now, in queue order, those
// armed meanwhile included. A periodic action is re-armed as it fires, at
// the first period boundary after now: a stalled driver fires it once.
func (q *Queue) Fire(now types.Time, n *core.Node) {
	for len(q.armed) > 0 && q.armed[0].At <= now {
		a := q.armed[0]
		q.armed = q.armed[1:]
		a.Do(n)
		if a.Every > 0 {
			a.At += ((now-a.At)/a.Every + 1) * a.Every
			q.Arm(a)
		}
	}
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
