package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/seclog"
	"repro/internal/simnet"
	"repro/internal/types"
)

// figure2 runs the MinCost network to quiescence, optionally arming a plan.
func figure2(t *testing.T, plan adversary.Plan) *simnet.Net {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Seed = 1
	if plan != nil {
		cfg.OnNode = plan.Hook()
	}
	net := simnet.New(cfg)
	if err := net.Deploy(mincost.New(mincost.Figure2Topology, types.Second, 30*types.Second)); err != nil {
		t.Fatal(err)
	}
	net.Run(30 * types.Second)
	return net
}

func TestBeginAuditScopeEmpty(t *testing.T) {
	net := figure2(t, nil)
	q := net.NewQuerier(mincost.Factory())
	q.Parallelism = 4
	// An empty scope must not start workers, and auditing must still work
	// through the sequential path.
	q.BeginAuditScope(nil, 0)
	if err := q.EnsureAudited("b", 0); err != nil {
		t.Fatalf("EnsureAudited after empty scope: %v", err)
	}
	if !q.Auditor.Audited("b") {
		t.Error("node not audited")
	}
	q.CloseScope()
}

func TestCloseScopeIsIdempotent(t *testing.T) {
	net := figure2(t, nil)
	q := net.NewQuerier(mincost.Factory())
	q.Parallelism = 4
	// Close with no scope active: no-op.
	q.CloseScope()
	q.BeginAuditScope(net.Nodes(), 0)
	q.CloseScope()
	q.CloseScope() // double close: no panic, no deadlock
	// A fresh scope after closing still works, and Begin closes any
	// previous scope itself.
	q.BeginAuditScope(net.Nodes(), 0)
	q.BeginAuditScope(net.Nodes(), 0)
	if err := q.EnsureAudited("c", 0); err != nil {
		t.Fatalf("EnsureAudited in reopened scope: %v", err)
	}
	q.CloseScope()
}

func TestAuditFailureMidScope(t *testing.T) {
	// One node in the scope serves a doctored log: its prepared audit must
	// fail with recorded evidence while the rest of the scope commits
	// normally, and re-demanding the failed node must not panic or flip it
	// to audited.
	net := figure2(t, adversary.Plan{"b": {adversary.TamperLog()}})
	q := net.NewQuerier(mincost.Factory())
	q.Parallelism = 4
	q.BeginAuditScope(net.Nodes(), 0)
	defer q.CloseScope()
	for _, id := range net.Nodes() {
		if err := q.EnsureAudited(id, 0); err != nil {
			t.Fatalf("EnsureAudited(%s): %v", id, err)
		}
	}
	if !q.Auditor.NodeFailed("b") {
		t.Error("doctored log not recorded as failure")
	}
	if q.Auditor.Audited("b") {
		t.Error("doctored log counted as audited")
	}
	for _, id := range []types.NodeID{"a", "c", "d", "e"} {
		if !q.Auditor.Audited(id) {
			t.Errorf("honest node %s not audited", id)
		}
		if q.Auditor.NodeFailed(id) {
			t.Errorf("honest node %s failed", id)
		}
	}
	// Re-demand: the failure stands, nothing panics.
	if err := q.EnsureAudited("b", 0); err != nil {
		t.Fatalf("re-demanding failed node: %v", err)
	}
	if q.Auditor.Audited("b") {
		t.Error("failed node became audited on re-demand")
	}
}

func TestUnresponsiveNodeInScope(t *testing.T) {
	net := figure2(t, adversary.Plan{"b": {adversary.RefuseAudits()}})
	q := net.NewQuerier(mincost.Factory())
	q.Parallelism = 4
	q.BeginAuditScope(net.Nodes(), 0)
	defer q.CloseScope()
	err := q.EnsureAudited("b", 0)
	if err == nil {
		t.Fatal("refusing node audited without error")
	}
	// The refusal is cached: a second demand reports the same error
	// without contacting the node again.
	if err2 := q.EnsureAudited("b", 0); err2 == nil {
		t.Fatal("cached refusal lost")
	}
	if q.Auditor.NodeFailed("b") {
		t.Error("refusal recorded as provable failure (it is not provable)")
	}
}

func TestFaultyNodesEdgeCases(t *testing.T) {
	mk := func(host types.NodeID, c provgraph.Color, children ...*core.Explanation) *core.Explanation {
		return &core.Explanation{Vertex: &provgraph.Vertex{Host: host}, Color: c, Children: children}
	}
	// No red anywhere: empty, not nil-sensitive.
	if got := mk("a", provgraph.Black, mk("b", provgraph.Yellow)).FaultyNodes(); len(got) != 0 {
		t.Errorf("FaultyNodes on clean tree = %v", got)
	}
	// Duplicates collapse and the result is sorted.
	tree := mk("a", provgraph.Black,
		mk("z", provgraph.Red),
		mk("b", provgraph.Red, mk("z", provgraph.Red)),
		mk("c", provgraph.Yellow))
	got := tree.FaultyNodes()
	if len(got) != 2 || got[0] != "b" || got[1] != "z" {
		t.Errorf("FaultyNodes = %v, want [b z]", got)
	}
	// A red root counts too.
	if got := mk("r", provgraph.Red).FaultyNodes(); len(got) != 1 || got[0] != "r" {
		t.Errorf("FaultyNodes on red root = %v", got)
	}
}

// TestFaultyNodesFromLiveQuery pins the end-to-end path: a forged
// derivation on b yields an explanation whose FaultyNodes is exactly [b].
func TestFaultyNodesFromLiveQuery(t *testing.T) {
	net := figure2(t, adversary.Plan{"b": {adversary.Forge()}})
	q := net.NewQuerier(mincost.Factory())
	adversary.AuditAll(q, net.Maintainer)
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range expl.FaultyNodes() {
		if f != "b" {
			t.Errorf("faulty nodes include honest %s:\n%s", f, expl.Format())
		}
	}
}

// flakyFetcher fails the first Retrieve of one node and counts, per node,
// how many retrieves it let through.
type flakyFetcher struct {
	core.Fetcher
	victim types.NodeID

	mu    sync.Mutex
	calls map[types.NodeID]int
}

func (f *flakyFetcher) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	f.mu.Lock()
	f.calls[node]++
	first := f.calls[node] == 1
	f.mu.Unlock()
	if node == f.victim && first {
		return nil, errors.New("connection reset (injected)")
	}
	return f.Fetcher.Retrieve(node, req)
}

// TestSweepRetriesUnderScope pins the retry contract Sweep's callers rely on
// (a partition healing, a daemon restarting): a target whose first retrieve
// fails is fetched again on the next pass, although the sweep's audit scope
// holds the failed attempt's task.
func TestSweepRetriesUnderScope(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			net := figure2(t, nil)
			q := net.NewQuerier(mincost.Factory())
			q.Parallelism = workers
			fetch := &flakyFetcher{Fetcher: q.Fetch, victim: "c", calls: map[types.NodeID]int{}}
			q.Fetch = fetch
			v := adversary.Sweep(q, net.Maintainer, nil, time.Now().Add(3*time.Second), time.Millisecond)
			if len(v.Unresponsive) != 0 {
				t.Fatalf("unresponsive after the retry pass: %v", v.Unresponsive)
			}
			if !q.Auditor.Audited("c") {
				t.Error("c not audited on the second pass")
			}
			if got := fetch.calls["c"]; got != 2 {
				t.Errorf("c retrieved %d times, want 2", got)
			}
			if len(v.Failures) != 0 || len(v.RedHosts) != 0 {
				t.Errorf("honest deployment accused: %v", v)
			}
		})
	}
}

// windowFetcher counts retrieves that have completed and whose audit the
// demand thread has not committed yet. A commit is visible to the test only
// as EnsureAudited returning, by when the window slot is free again and a
// worker may have fetched into it. So a retrieve that completes while a
// demand for another node is in progress is counted once that demand has
// been: every count is then taken with no commit unaccounted for.
type windowFetcher struct {
	core.Fetcher
	limit int

	mu          sync.Mutex
	accounted   *sync.Cond   // the demand in progress has been counted
	demanding   types.NodeID // the node EnsureAudited is running for, if any
	outstanding int
	peak        int
	overflow    chan struct{} // closed when outstanding first exceeds limit
}

func (f *windowFetcher) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	resp, err := f.Fetcher.Retrieve(node, req)
	f.mu.Lock()
	defer f.mu.Unlock()
	// The demand may be waiting for this very retrieve; it waits for no other.
	for f.demanding != "" && f.demanding != node {
		f.accounted.Wait()
	}
	f.outstanding++
	f.peak = max(f.peak, f.outstanding)
	if f.outstanding == f.limit+1 {
		close(f.overflow)
	}
	return resp, err
}

// ensureAudited demands node and counts its commit.
func (f *windowFetcher) ensureAudited(q *core.Querier, node types.NodeID) error {
	f.mu.Lock()
	f.demanding = node
	f.mu.Unlock()
	err := q.EnsureAudited(node, 0)
	f.mu.Lock()
	f.outstanding--
	f.demanding = ""
	f.accounted.Broadcast()
	f.mu.Unlock()
	return err
}

// TestAuditScopeWindow pins the prefetcher's memory bound: however long the
// scope, at most Parallelism fetched audits await their commit.
func TestAuditScopeWindow(t *testing.T) {
	const workers = 2
	net := figure2(t, nil)
	nodes := net.Nodes()
	if len(nodes) <= workers+1 {
		t.Fatalf("need more than %d nodes, have %d", workers+1, len(nodes))
	}
	q := net.NewQuerier(mincost.Factory())
	q.Parallelism = workers
	fetch := &windowFetcher{Fetcher: q.Fetch, limit: workers, overflow: make(chan struct{})}
	fetch.accounted = sync.NewCond(&fetch.mu)
	q.Fetch = fetch
	q.BeginAuditScope(nodes, 0)
	defer q.CloseScope()
	// Nothing is demanded yet, so nothing can be committed: a pool that is
	// not held back by the window runs through the whole scope now.
	select {
	case <-fetch.overflow:
		t.Fatalf("more than %d retrieves completed before any commit", workers)
	case <-time.After(100 * time.Millisecond):
	}
	for _, n := range nodes {
		if err := fetch.ensureAudited(q, n); err != nil {
			t.Fatalf("EnsureAudited(%s): %v", n, err)
		}
	}
	if fetch.peak > workers {
		t.Errorf("%d fetched audits awaited their commit at once, window is %d", fetch.peak, workers)
	}
	if got := q.Metrics.NodesContacted; got != len(nodes) {
		t.Errorf("NodesContacted = %d, want %d", got, len(nodes))
	}
}

// downFetcher cuts one node off — its retrieves and authenticator requests
// fail — and counts how often it is still asked, as an observer, for the
// authenticators it holds about others.
type downFetcher struct {
	core.Fetcher
	down  types.NodeID
	asked int
}

func (f *downFetcher) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	if node == f.down {
		return nil, errors.New("no route to host (injected)")
	}
	return f.Fetcher.Retrieve(node, req)
}

func (f *downFetcher) LatestAuth(node types.NodeID) (seclog.Authenticator, error) {
	if node == f.down {
		return seclog.Authenticator{}, errors.New("no route to host (injected)")
	}
	return f.Fetcher.LatestAuth(node)
}

func (f *downFetcher) AuthsAbout(observer, target types.NodeID, t1, t2 types.Time) []seclog.Authenticator {
	if observer == f.down {
		f.asked++
		return nil
	}
	return f.Fetcher.AuthsAbout(observer, target, t1, t2)
}

// TestConsistencyCheckSkipsUnreachablePeers: the §5.5 loop of an Explain
// asks no peer the session already holds as unreachable — over a network
// every such request costs a whole retry budget and cannot succeed.
func TestConsistencyCheckSkipsUnreachablePeers(t *testing.T) {
	net := figure2(t, nil)
	q := net.NewQuerier(mincost.Factory())
	fetch := &downFetcher{Fetcher: q.Fetch, down: "d"}
	q.Fetch = fetch
	if err := q.EnsureAudited("d", 0); err == nil {
		t.Fatal("the audit of a cut-off node succeeded")
	}
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if fetch.asked != 0 {
		t.Errorf("the consistency check asked unreachable d for authenticators %d times", fetch.asked)
	}
	if len(q.Auditor.Failures()) != 0 || len(expl.FaultyNodes()) != 0 {
		t.Errorf("an unreachable peer produced an accusation: %v\n%s", q.Auditor.Failures(), expl.Format())
	}
	// The peers that do answer are still asked: c's chain is checked.
	if q.Metrics.AuthBytes == 0 {
		t.Error("no authenticator was downloaded at all")
	}
}
