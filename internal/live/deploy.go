package live

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/seclog"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// DefaultTprop is the commitment protocol's propagation bound for live
// deployments: well above loopback scheduling noise, small enough to keep
// missed-ack settling fast. Every process of a deployment uses it.
const DefaultTprop = 400 * time.Millisecond

// Deployment is what every process of one live deployment derives
// identically from its app: the protocol configuration and the key
// directory (Nodes[i] holds the key of KeySeeds[i], workload.Workload.Key,
// as under the simulator). Maint is this process's maintainer — the one its
// local nodes report missing acks to and its audits score evidence
// against. Callers that back logs with a store or share an audit cache set
// Cfg.LogDir / Cfg.AuditCache before starting nodes or queriers.
type Deployment struct {
	App   *workload.Workload
	Cfg   core.Config
	Dir   *core.Directory
	Maint *core.Maintainer
}

// NewDeployment derives the deployment parameters at DefaultTprop. The skew
// bound is Tprop/2: live nodes share (or closely track) one machine clock,
// and the margin absorbs injected delays. A workload that fails its Check
// is refused.
func NewDeployment(app *workload.Workload) (*Deployment, error) {
	if err := app.Check(); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Tprop = types.Time(DefaultTprop)
	cfg.DeltaClock = cfg.Tprop / 2
	cfg.CheckpointEvery = 0
	d := &Deployment{App: app, Cfg: cfg, Dir: core.NewDirectory(), Maint: core.NewMaintainer()}
	for i, id := range app.Nodes {
		key, err := app.Key(cfg.Suite, i)
		if err != nil {
			return nil, err
		}
		d.Dir.Register(id, key.Public())
	}
	return d, nil
}

// SettleWindow is how long a driver keeps the deployment running before an
// audit so every in-flight exchange resolves — delivered and acked, or
// retransmitted and finally reported to the maintainer (which takes
// 2·Tprop). Auditing earlier would see honest nodes with unacked sends the
// maintainer has not been told about yet, which the finalizer would have to
// treat as provable evidence; after it, such sends are at worst
// unattributable leads.
func (d *Deployment) SettleWindow() time.Duration {
	return 5*time.Duration(d.Cfg.Tprop)/2 + 200*time.Millisecond
}

// NewQuerier builds an audit session over fetch, scored against this
// process's maintainer, with the app's audit hooks installed.
func (d *Deployment) NewQuerier(fetch core.Fetcher) *core.Querier {
	return d.App.NewQuerier(d.Cfg, d.Dir, d.Maint, fetch)
}

// Node is one running node of a deployment: a core.Node served on a
// cluster, driven by its share of the app's timeline.
type Node struct {
	ID types.NodeID

	app       *workload.Workload
	cluster   *transport.Cluster
	log       *seclog.Log // closed by Stop
	recovered bool
	ticks     int

	// seeded is the wall-clock origin of the timeline, whose armed firings
	// wait in timeline.
	seeded   time.Time
	timeline workload.Queue
}

// Start brings node id up on the cluster: build it (with recover, reopen
// its store through crash recovery instead), arm it (adversary behaviors,
// crash rules; may be nil), and serve it on addr with the app's convergence
// probe installed. The caller then calls Seed — at once in a one-node
// daemon, after every node is serving in a one-process harness, so the
// first sends find their peers listening — and Tick from then on.
func (d *Deployment) Start(c *transport.Cluster, id types.NodeID, addr string, recover bool,
	arm func(*core.Node) error) (*Node, error) {
	i := slices.Index(d.App.Nodes, id)
	if i < 0 {
		return nil, fmt.Errorf("live: node %s is not in the %s deployment %v", id, d.App.Name, d.App.Nodes)
	}
	key, err := d.App.Key(d.Cfg.Suite, i)
	if err != nil {
		return nil, err
	}
	cfg := d.Cfg
	cfg.LogRecover = recover
	node, err := core.NewNode(id, cfg, key, d.Dir, d.Maint, transport.WallClock{}, c, d.App.Factory(id))
	if err != nil {
		return nil, fmt.Errorf("live: starting %s: %w", id, err)
	}
	if arm != nil {
		err = arm(node)
	}
	if err == nil {
		// Exporting the process's maintainer over the notes RPC lets
		// out-of-process auditors merge the §5.4 missing-ack shield.
		c.SetMaintainer(d.Maint)
		if d.App.Probe != nil {
			c.SetProbe(id, d.App.Probe)
		}
		_, err = c.Serve(node, addr)
	}
	if err != nil {
		_ = node.Log.Close()
		return nil, err
	}
	return &Node{ID: id, app: d.App, cluster: c, log: node.Log, recovered: recover}, nil
}

// Seed starts the node's timeline at wall-clock offset zero by the one
// rule every driver uses (workload.Workload.ArmNode): the whole of it on a
// fresh start; after a crash restart the app re-derives its driver state
// from the recovered machine and only the periodic actions resume, the
// one-shot inputs being in the recovered log already. Actions due at offset
// zero fire before Seed returns, and a node fault they cause is returned.
func (n *Node) Seed() error {
	n.seeded = time.Now()
	var fault error
	err := n.cluster.With(n.ID, func(cn *core.Node) {
		n.app.ArmNode(cn, n.recovered, n.timeline.Arm)
		n.fire(cn)
		fault = cn.Err()
	})
	if err != nil {
		return err
	}
	return fault
}

// fire runs the timeline's due firings at the wall-clock offset since Seed.
func (n *Node) fire(cn *core.Node) { n.timeline.Fire(types.Time(time.Since(n.seeded)), cn) }

// Tick runs one driver step: the timeline's due actions, then the node's
// protocol Tick (batching, retransmission, missed-ack notification), then —
// every syncEvery ticks, when positive — a durable log sync. A node fault
// from Tick is sticky and stays readable via core.Node.Err; only a node
// that is no longer served is an error here.
func (n *Node) Tick(syncEvery int) error {
	n.ticks++
	return n.cluster.With(n.ID, func(cn *core.Node) {
		n.fire(cn)
		_ = cn.Tick()
		if syncEvery > 0 && n.ticks%syncEvery == 0 {
			_ = cn.Log.Sync()
		}
	})
}

// Stop takes the node down: stop serving (draining in-flight handlers),
// then sync and close its log. Stopping a node whose cluster has already
// closed just closes the log.
func (n *Node) Stop() error {
	_ = n.cluster.StopNode(n.ID)
	return n.log.Close()
}
