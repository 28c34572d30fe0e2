package live

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// tickEvery is the harness tick period.
const tickEvery = 10 * time.Millisecond

// Options configures an in-process run. Zero values select defaults tuned
// for loopback.
type Options struct {
	// Seed drives the transport's jitter streams and the fault plan (runs
	// with equal Seed and Fault rules make identical per-link fault
	// decision sequences).
	Seed int64
	// Fault, when non-nil, injects network faults on every link.
	Fault *transport.FaultPlan
	// OnNode arms adversary behaviors (adversary.Plan.Hook) on each node
	// before it starts serving. May be nil.
	OnNode func(*core.Node)
	// LogDir, when set, backs every node's log with an on-disk segment
	// store there (required for Restart).
	LogDir string
	// Transport overrides the transport config (Seed and Fault are still
	// taken from this Options).
	Transport *transport.Config
}

// Harness is one live deployment run in this process: every node of the
// workload on one loopback TCP cluster — wall-clock time, genuine sockets,
// optional injected network faults — all sharing the deployment's
// maintainer, audited over the remote (wire-level) audit path. It is the
// bridge between the deterministic simulator, where the §4.2 detection
// guarantee is pinned exhaustively, and a deployment where connections
// reset, peers stall, and nodes restart.
type Harness struct {
	*Deployment
	Cluster *transport.Cluster

	onNode   func(*core.Node)
	nodes    map[types.NodeID]*Node
	fetchers []*transport.RemoteFetcher
}

// New builds the deployment: a TCP cluster on loopback, one node per
// App.Nodes entry (armed via Options.OnNode before serving), and — once
// every node is serving — each node's share of the workload seeded.
func New(app *workload.Workload, opts Options) (*Harness, error) {
	tcfg := transport.DefaultConfig()
	if opts.Transport != nil {
		tcfg = *opts.Transport
	}
	tcfg.Seed = opts.Seed
	tcfg.Fault = opts.Fault
	d, err := NewDeployment(app)
	if err != nil {
		return nil, err
	}
	d.Cfg.LogDir = opts.LogDir
	h := &Harness{
		Deployment: d,
		Cluster:    transport.NewClusterWith(tcfg),
		onNode:     opts.OnNode,
		nodes:      make(map[types.NodeID]*Node),
	}
	for _, id := range app.Nodes {
		if err == nil {
			err = h.startNode(id, false)
		}
	}
	// Seed only once every node is serving, so first sends find their peers.
	for _, id := range app.Nodes {
		if err == nil {
			err = h.nodes[id].Seed()
		}
	}
	if err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

func (h *Harness) startNode(id types.NodeID, recover bool) error {
	node, err := h.Start(h.Cluster, id, "127.0.0.1:0", recover, func(n *core.Node) error {
		if h.onNode != nil {
			h.onNode(n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	h.nodes[id] = node
	return nil
}

// With runs fn on a node under the cluster's serialization lock.
func (h *Harness) With(id types.NodeID, fn func(*core.Node)) error {
	return h.Cluster.With(id, fn)
}

// tick runs one runtime step on every node, in deployment order.
func (h *Harness) tick() {
	for _, id := range h.App.Nodes {
		_ = h.nodes[id].Tick(0)
	}
}

// Converged reports whether every node's convergence probe holds
// (best-effort under lossy fault plans: a plan is allowed to keep a
// workload from converging, but never to turn honest nodes into provable
// suspects).
func (h *Harness) Converged() bool {
	for _, id := range h.App.Nodes {
		ok := false
		err := h.With(id, func(n *core.Node) { ok = h.App.Probe == nil || h.App.Probe(n) })
		if err != nil || !ok {
			return false // a node that is not being served has not converged
		}
	}
	return true
}

// RunFor drives the deployment for d of wall time.
func (h *Harness) RunFor(d time.Duration) { _ = h.RunUntil(func() bool { return false }, d) }

// RunUntil drives the deployment until probe returns true or the timeout
// passes, which is an error.
func (h *Harness) RunUntil(probe func() bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if probe() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: %s did not converge within %v", h.App.Name, timeout)
		}
		h.tick()
		time.Sleep(tickEvery)
	}
}

// Settle keeps ticking through the deployment's settling window (see
// Deployment.SettleWindow) so an audit afterwards sees every exchange
// resolved.
func (h *Harness) Settle() { h.RunFor(h.SettleWindow()) }

// NewQuerier builds an audit session over the remote (TCP) audit path. The
// querier's retrieve calls dial the nodes like any external auditor would,
// so fault plans apply to audit traffic too ("auditor" is the dialing
// identity fault rules see). Its Fetch is a *transport.RemoteFetcher with
// the audit drivers' budgets, closed by Close.
func (h *Harness) NewQuerier() *core.Querier {
	f := h.Cluster.NewFetcher("auditor")
	f.CallTimeout, f.RetryDeadline = transport.AuditCallTimeout, transport.AuditRetryDeadline
	h.fetchers = append(h.fetchers, f)
	return h.Deployment.NewQuerier(f)
}

// Restart crash-restarts a node: stop serving (draining in-flight
// handlers), close its log store, then reopen the store through the
// recovery path, rejoin the cluster on a fresh port, and let the app
// re-derive its driver state from the recovered machine. Requires
// Options.LogDir. The rest of the cluster keeps running throughout and
// reconnects via the transport's backoff path.
func (h *Harness) Restart(id types.NodeID) error {
	if h.Cfg.LogDir == "" {
		return fmt.Errorf("live: Restart(%s) needs Options.LogDir", id)
	}
	node, ok := h.nodes[id]
	if !ok {
		return fmt.Errorf("live: no node %s", id)
	}
	if err := node.Stop(); err != nil {
		return err
	}
	if err := h.startNode(id, true); err != nil {
		return err
	}
	return h.nodes[id].Seed()
}

// HeadHash returns a node's current log head (flushing the store first),
// for restart-recovery assertions.
func (h *Harness) HeadHash(id types.NodeID) ([]byte, error) {
	var head []byte
	var syncErr error
	err := h.With(id, func(n *core.Node) {
		syncErr = n.Log.Sync()
		head = append([]byte(nil), n.Log.HeadHash()...)
	})
	if err != nil {
		return nil, err
	}
	return head, syncErr
}

// Close tears the deployment down: audit fetchers first, then the cluster
// (listeners, links, in-flight handlers), then every node's log — flushing
// active tails and releasing mapped tables and the store's compactor.
func (h *Harness) Close() {
	for _, f := range h.fetchers {
		f.Close()
	}
	h.Cluster.Close()
	for _, node := range h.nodes {
		_ = node.Stop()
	}
}
