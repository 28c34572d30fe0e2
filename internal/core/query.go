package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/provgraph"
	"repro/internal/seclog"
	"repro/internal/types"
)

// QueryMetrics accumulates the cost of one query session, matching the
// quantities Figure 8 reports: bytes downloaded by category and time spent
// checking authenticators vs. replaying.
type QueryMetrics struct {
	LogBytes   int64
	AuthBytes  int64
	CkptBytes  int64
	VerifyTime time.Duration
	// ReplayTime is the wall time audits spent verifying, replaying and
	// committing what they fetched. A streamed audit replays and commits at
	// once (see Querier), and counts the wall time of the two together.
	ReplayTime     time.Duration
	Microqueries   int
	NodesContacted int
}

// TotalBytes returns all bytes downloaded.
func (m QueryMetrics) TotalBytes() int64 { return m.LogBytes + m.AuthBytes + m.CkptBytes }

// Fetcher gives the querier access to the nodes' audit interfaces. The
// simulated network and the TCP transport both implement it.
type Fetcher interface {
	// Retrieve invokes the retrieve primitive on a node.
	Retrieve(node types.NodeID, req RetrieveRequest) (*RetrieveResponse, error)
	// LatestAuth obtains fresh evidence (the node's newest authenticator).
	LatestAuth(node types.NodeID) (seclog.Authenticator, error)
	// AuthsAbout asks observer for authenticators signed by target in
	// [t1, t2] (the §5.5 consistency check).
	AuthsAbout(observer, target types.NodeID, t1, t2 types.Time) []seclog.Authenticator
	// Nodes lists all reachable nodes.
	Nodes() []types.NodeID
}

// QueryMode selects what the root vertex of an explanation is.
type QueryMode uint8

// Query modes: current state ("why does τ exist?"), historical state ("why
// did τ exist at t?"), and the dynamic forms ("why did τ (dis)appear?").
const (
	ModeExist QueryMode = iota
	ModeAppear
	ModeDisappear
)

// Direction selects causes (backward) or effects (forward, the causal
// queries used to assess damage after an attack).
type Direction uint8

// Traversal directions.
const (
	Causes Direction = iota
	Effects
)

// QueryOpts parameterizes a macroquery.
type QueryOpts struct {
	Mode      QueryMode
	Direction Direction
	// At is the reference time for historical queries; zero means "now".
	At types.Time
	// Scope bounds the traversal depth (the scope k of §5.1); zero means
	// unlimited.
	Scope int
	// StartHint bounds how far back the first retrieve must reach; replay
	// then starts from the last checkpoint before it (§5.6). Zero fetches
	// the whole retained log.
	StartHint types.Time
	// EndHint, the mirror of StartHint, bounds how far forward the retrieves
	// of a Causes walk reach on the nodes it crosses onto: the root's
	// CausalHorizon, in the local time of each. Zero retrieves every log
	// through its head. A prefix cannot be extended once Finalize has flagged
	// its end, so a bounded Explain wants a Querier of its own.
	EndHint types.Time
}

// Explanation is one vertex of a query answer, with its resolved color and
// its (cause or effect) children.
type Explanation struct {
	Vertex    *provgraph.Vertex
	Color     provgraph.Color
	Children  []*Explanation
	Truncated bool   // scope limit reached
	Revisit   bool   // vertex already expanded elsewhere in this answer
	Note      string // e.g. "node did not respond"
}

// Querier is the query processor (§5.1): it answers macroqueries by
// repeatedly invoking the microquery primitive, auditing nodes on demand
// and assembling explanations from the reconstructed graph.
//
// A querier may fan the expensive half of auditing out over a worker pool:
// BeginAuditScope starts background fetch+verify+replay preparation for the
// nodes a query is expected to touch, and EnsureAudited then commits the
// prepared audits serially, in demand order. Because commits — and all
// metric accounting — happen only at the demand points, every deterministic
// observable (graph, failures, downloaded bytes) is bit-identical to a
// fully sequential audit; only wall-clock time changes. The pool works
// under a bounded window: at most as many fetched-but-uncommitted audits
// exist as there are workers, so a scope's memory is bounded by the worker
// count and not by its length.
//
// An audit outside a scope — an Explain's root and every node its walk
// crosses onto, or any audit with no scope open — has no next node to prepare
// ahead, so with a spare core (Parallelism of 2 or more) and no audit cache
// it streams instead: it verifies its segment, then replays it on a second
// goroutine whose ops the commit applies as they come, so the replay and the
// commit overlap. The graph, the failures and every metric but ReplayTime
// are those of the inline audit. The Querier itself must be driven from a
// single goroutine.
type Querier struct {
	Auditor *Auditor
	Fetch   Fetcher
	Metrics QueryMetrics

	// Parallelism bounds the audit worker pool started by BeginAuditScope,
	// and with it the window of prepared audits awaiting their commit; zero
	// means GOMAXPROCS. When the effective pool would be a single worker,
	// BeginAuditScope starts no pool and every audit runs inline
	// (speculation cannot pay for itself without a spare core); at 1 no audit
	// streams either.
	Parallelism int

	// yellowNodes records nodes that failed to answer retrieve; their
	// vertices stay yellow (§4.2, the "unavailable" limitation).
	yellowNodes map[types.NodeID]error

	pf *prefetcher
}

// NewQuerier creates a query processor over the given auditor and fetcher.
func NewQuerier(auditor *Auditor, fetch Fetcher) *Querier {
	return &Querier{Auditor: auditor, Fetch: fetch, yellowNodes: make(map[types.NodeID]error)}
}

// Unreachable returns the nodes whose retrieve calls have failed so far,
// with the error that made them yellow. These are exactly the §4.2
// "unavailable" nodes: unattributable leads, not accusations.
func (q *Querier) Unreachable() map[types.NodeID]error {
	out := make(map[types.NodeID]error, len(q.yellowNodes))
	for id, err := range q.yellowNodes {
		out[id] = err
	}
	return out
}

// ForgetUnreachable clears a node's cached retrieve failure so the next
// audit tries it again. Yellow is otherwise sticky within a querier —
// retry-until-deadline loops (a partition healing, a node restarting)
// call this between attempts.
func (q *Querier) ForgetUnreachable(node types.NodeID) {
	if _, yellow := q.yellowNodes[node]; !yellow {
		return
	}
	delete(q.yellowNodes, node)
	// The scope still holds the task that recorded the failure, and claim
	// would hand it out again instead of fetching afresh.
	if q.pf != nil {
		q.pf.dropUnreachable(node)
	}
}

// ForgetRecordings enforces the audit cache's rule that a recording may
// confirm "still clean", never accuse (auditcache.go). A caller holding an
// answer with a failure or a red vertex calls it: if some audit of q's was
// played from a recording, q starts over — no audits, no unreachable nodes, a
// fresh Auditor that reads no cache, the application's hooks carried over —
// and it reports true, and the caller asks again. Otherwise it changes
// nothing.
func (q *Querier) ForgetRecordings() bool {
	old := q.Auditor
	if !old.recorded {
		return false
	}
	cfg := old.cfg
	cfg.AuditCache = nil
	a := NewAuditor(cfg, old.dir, old.factory, nil)
	a.Builder.MissedAckKnown = old.Builder.MissedAckKnown
	a.Builder.MaybeValidator = old.Builder.MaybeValidator
	q.CloseScope()
	q.pf = nil
	q.Auditor = a
	q.yellowNodes = make(map[types.NodeID]error)
	return true
}

// auditTask is one node's background fetch-and-prepare. The fields after
// done are written by exactly one worker before done is closed and read only
// afterwards.
type auditTask struct {
	done      chan struct{}
	authBytes int64 // of the authenticator downloaded as evidence, if one was
	authErr   error
	fetchErr  error
	prep      *PreparedAudit
	// prepDur is the duration of the Prepare call alone (fetch excluded):
	// inline fills report it as replay cost, and fetch time is modeled
	// separately as download time.
	prepDur time.Duration
	// windowed marks a scope task that still occupies a slot of the
	// prefetcher's window (guarded by prefetcher.mu).
	windowed bool
}

// prefetcher coordinates the audit worker pool of one scope. Workers prepare
// queued nodes in order, but only while fewer than window tasks await a
// commit: what a worker has prepared stays in memory (the op stream and the
// segment entries it points into) until the demand thread commits it, and an
// unbounded pool over a long scope held the whole deployment's worth (+24%
// peak heap on a ten-node sweep). A commit frees its slot.
type prefetcher struct {
	mu      sync.Mutex
	freed   *sync.Cond // a slot was freed, or the scope stopped
	tasks   map[types.NodeID]*auditTask
	queue   []types.NodeID
	next    int
	hint    types.Time
	window  int // the worker count
	held    int // tasks claimed and not yet committed
	stopped bool
	wg      sync.WaitGroup
}

// claim marks node as owned by the caller and returns a fresh task to fill
// in, or the existing task if another worker already owns it (started=true).
// The caller is the demand thread and cannot wait for the window, but its
// task counts against it: demanding in queue order, it finds a node unclaimed
// only when every earlier one is committed, so the bound holds exactly.
func (pf *prefetcher) claim(node types.NodeID) (t *auditTask, started bool) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if t, ok := pf.tasks[node]; ok {
		return t, true
	}
	return pf.newTask(node), false
}

// newTask registers a task for node in the window. The caller holds pf.mu.
func (pf *prefetcher) newTask(node types.NodeID) *auditTask {
	t := &auditTask{done: make(chan struct{}), windowed: true}
	pf.tasks[node] = t
	pf.held++
	return t
}

// nextNode hands a worker the next unclaimed scope node once the window has
// room for it, or false when the scope is exhausted or stopped.
func (pf *prefetcher) nextNode() (types.NodeID, *auditTask, bool) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	for !pf.stopped && pf.next < len(pf.queue) {
		if pf.held >= pf.window {
			pf.freed.Wait()
			continue
		}
		node := pf.queue[pf.next]
		pf.next++
		if _, taken := pf.tasks[node]; taken {
			continue
		}
		return node, pf.newTask(node), true
	}
	return "", nil, false
}

// release frees t's window slot, if it holds one.
func (pf *prefetcher) release(t *auditTask) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.releaseLocked(t)
}

func (pf *prefetcher) releaseLocked(t *auditTask) {
	if t.windowed {
		t.windowed = false
		pf.held--
		pf.freed.Signal()
	}
}

// dropUnreachable forgets node's task if it finished without an answer from
// the node, so that the next demand fetches again. A task that reached
// Prepare stays: committed, it is spent; verification-failed, it is the
// evidence a re-demand replays (see commitTask).
func (pf *prefetcher) dropUnreachable(node types.NodeID) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	t, ok := pf.tasks[node]
	if !ok {
		return
	}
	select {
	case <-t.done:
		if t.authErr != nil || t.fetchErr != nil {
			delete(pf.tasks, node)
			pf.releaseLocked(t) // no demand will commit it now
		}
	default: // still being filled: its outcome is not known yet
	}
}

// fill runs the thread-safe half of one node's audit into t and publishes it:
// the retrieve req asks for, verified against req.Auth and, unless stream
// leaves that to the commit, replayed. A request that names no evidence is
// for the log from StartTime through the head, against the authenticator the
// node is first asked for.
func (t *auditTask) fill(auditor *Auditor, fetch Fetcher, node types.NodeID, req RetrieveRequest, stream bool) {
	defer close(t.done)
	if req.Auth.Node == "" {
		auth, err := fetch.LatestAuth(node)
		if err != nil {
			t.authErr = err
			return
		}
		t.authBytes = int64(auth.WireSize())
		req.Auth = auth
	}
	resp, err := fetch.Retrieve(node, req)
	if err != nil {
		t.fetchErr = err
		return
	}
	start := wallNow()
	t.prep = auditor.prepare(node, resp, req.Auth, stream)
	t.prepDur = wallSince(start)
}

func (pf *prefetcher) run(auditor *Auditor, fetch Fetcher) {
	defer pf.wg.Done()
	for {
		node, t, ok := pf.nextNode()
		if !ok {
			return
		}
		t.fill(auditor, fetch, node, RetrieveRequest{StartTime: pf.hint}, false)
	}
}

// workers is what Parallelism resolves to.
func (q *Querier) workers() int {
	if q.Parallelism > 0 {
		return q.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// BeginAuditScope announces the set of nodes a query session is expected to
// audit and starts preparing them (fetch, signature verification, replica
// replay) on a background worker pool. Preparation changes no query metric
// or graph state until EnsureAudited demands a node and commits it; nodes in
// the scope that are never demanded cost only wasted background work. Note
// that speculative retrieves do exercise the contacted nodes themselves —
// each one signs a fresh authenticator, bumping that node's own crypto Stats
// by a schedule-dependent amount — so run-level accounting (Figure 7) must
// be snapshotted before scoped queries, which is how the harnesses order it.
// Nodes this querier has already audited, or holds as unreachable, are left
// out: no demand will ever commit them. Any previous scope is closed first.
func (q *Querier) BeginAuditScope(nodes []types.NodeID, startHint types.Time) {
	q.CloseScope()
	q.pf = nil
	queue := make([]types.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if _, yellow := q.yellowNodes[n]; !yellow && !q.Auditor.Audited(n) {
			queue = append(queue, n)
		}
	}
	workers := min(q.workers(), len(queue))
	if workers <= 1 {
		// No parallelism to exploit: speculative preparation of nodes the
		// query may never demand would compete with the query itself for
		// the single core, so stay strictly lazy: each demand fills inline.
		return
	}
	pf := &prefetcher{
		tasks:  make(map[types.NodeID]*auditTask),
		queue:  queue,
		hint:   startHint,
		window: workers,
	}
	pf.freed = sync.NewCond(&pf.mu)
	q.pf = pf
	pf.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go pf.run(q.Auditor, q.Fetch)
	}
}

// CloseScope stops the background audit workers (in-flight preparations
// complete; queued ones are abandoned) and waits for them to exit. Already
// prepared audits remain usable by later EnsureAudited calls. It is safe to
// call with no scope active.
func (q *Querier) CloseScope() {
	pf := q.pf
	if pf == nil {
		return
	}
	pf.mu.Lock()
	pf.stopped = true
	pf.freed.Broadcast()
	pf.mu.Unlock()
	pf.wg.Wait()
}

// EnsureAudited retrieves and replays node's log if not already done.
// startHint bounds how far back the segment must reach (zero = everything).
func (q *Querier) EnsureAudited(node types.NodeID, startHint types.Time) error {
	return q.ensureAudited(node, RetrieveRequest{StartTime: startHint})
}

// ensureAudited is EnsureAudited for the retrieve req describes. A request
// that carries evidence is private to this call; one without goes through the
// scope, if one is prepared for its StartTime.
func (q *Querier) ensureAudited(node types.NodeID, req RetrieveRequest) error {
	if q.Auditor.Audited(node) {
		return nil
	}
	if err, bad := q.yellowNodes[node]; bad {
		return err
	}
	q.Metrics.Microqueries++
	// With no scope, or a scope prepared for another request, the task is
	// private to this call; either way an unstarted task is filled inline
	// rather than waiting for pool capacity. A private task streams its
	// replay into its commit when a spare core can run it and no audit-cache
	// recording is to be read (a recording is known to fit only once its walk
	// ends). A scope task never does: the scope already overlaps one node's
	// commit with the next one's preparation.
	var t *auditTask
	var started, stream bool
	pf := q.pf
	if pf != nil && req.Auth.Node == "" && pf.hint == req.StartTime {
		t, started = pf.claim(node)
		defer pf.release(t) // committed below, whatever the outcome
	} else {
		t = &auditTask{done: make(chan struct{})}
		stream = q.Auditor.cfg.AuditCache == nil && q.workers() >= 2
	}
	if !started {
		// ReplayTime counts the Prepare and the commit but not the fetch
		// (fetch cost is modeled as download time).
		t.fill(q.Auditor, q.Fetch, node, req, stream)
		start := wallNow()
		err := q.commitTask(node, t)
		q.Metrics.ReplayTime += t.prepDur + wallSince(start)
		return err
	}
	// Worker-prepared: ReplayTime records the demand thread's actual stall
	// (wait for the worker, then commit) — zero when preparation already
	// finished in the background.
	start := wallNow()
	<-t.done
	err := q.commitTask(node, t)
	q.Metrics.ReplayTime += wallSince(start)
	return err
}

// commitTask performs the serial half of an audit. The order of the metric
// updates is part of the deterministic series.
func (q *Querier) commitTask(node types.NodeID, t *auditTask) error {
	if t.authErr != nil {
		q.yellowNodes[node] = t.authErr
		return t.authErr
	}
	q.Metrics.AuthBytes += t.authBytes
	if t.fetchErr != nil {
		q.yellowNodes[node] = t.fetchErr
		return t.fetchErr
	}
	q.Metrics.NodesContacted++
	q.Metrics.LogBytes += t.prep.wire.log
	q.Metrics.CkptBytes += t.prep.wire.ckpt
	q.Metrics.AuthBytes += t.prep.wire.auth
	if err := q.Auditor.Commit(t.prep); err != nil {
		// The node answered but its log is provably bad; failures are
		// recorded and its vertices will be red. The prepared audit is kept
		// so a re-demand within the scope (the node never becomes Audited)
		// replays the same evidence.
		return nil
	}
	// Committed: the node is now Audited, so this op stream can never be
	// consumed again — release it rather than pinning it in pf.tasks.
	t.prep = nil
	return nil
}

// CheckConsistency is the §5.5 consistency check for one target over
// [t1, t2], the one loop every audit path runs: each authenticator a peer
// holds about the target goes to check, which must find it on the chain the
// target presented. Peers in down are not asked — they already failed to
// answer, and asking again costs a retry budget each over a network.
func CheckConsistency(fetch Fetcher, peers []types.NodeID, down map[types.NodeID]error,
	target types.NodeID, t1, t2 types.Time, check func(seclog.Authenticator)) {
	for _, peer := range peers {
		if _, skip := down[peer]; skip || peer == target {
			continue
		}
		for _, a := range fetch.AuthsAbout(peer, target, t1, t2) {
			check(a)
		}
	}
}

// consistencyCheck runs CheckConsistency for node among the peers this
// session has not found unreachable, metering what it downloads.
func (q *Querier) consistencyCheck(node types.NodeID, t1, t2 types.Time) {
	start := wallNow()
	defer func() { q.Metrics.VerifyTime += wallSince(start) }()
	CheckConsistency(q.Fetch, q.Fetch.Nodes(), q.yellowNodes, node, t1, t2, func(a seclog.Authenticator) {
		q.Metrics.AuthBytes += int64(a.WireSize())
		q.Auditor.CheckAuthenticator(a)
	})
}

// colorOf resolves a vertex's effective color: red if the host's audit
// failed, yellow if the host never answered, otherwise the graph color.
func (q *Querier) colorOf(v *provgraph.Vertex) (provgraph.Color, string) {
	if _, bad := q.yellowNodes[v.Host]; bad {
		return provgraph.Yellow, fmt.Sprintf("node %s did not respond to retrieve", v.Host)
	}
	if q.Auditor.NodeFailed(v.Host) {
		return provgraph.Red, fmt.Sprintf("audit of %s failed", v.Host)
	}
	return v.Color, ""
}

// Explain answers a macroquery about tuple on node.
func (q *Querier) Explain(node types.NodeID, tuple types.Tuple, opts QueryOpts) (*Explanation, error) {
	if err := q.EnsureAudited(node, opts.StartHint); err != nil {
		return nil, fmt.Errorf("core: cannot audit %s: %w", node, err)
	}
	q.Auditor.Finalize()
	root := q.findRoot(node, tuple, opts)
	if root == nil {
		return nil, fmt.Errorf("core: no %v vertex for %s on %s", opts.Mode, tuple, node)
	}
	t2 := root.T2
	if t2 == provgraph.Forever {
		t2 = q.Auditor.endTimes[node]
	}
	q.consistencyCheck(node, root.T1, t2)
	visited := make(map[*provgraph.Vertex]bool)
	expl := q.expand(root, opts, 0, visited)
	q.Auditor.Finalize()
	return expl, nil
}

func (q *Querier) findRoot(node types.NodeID, tuple types.Tuple, opts QueryOpts) *provgraph.Vertex {
	g := q.Auditor.Graph()
	if opts.Direction == Effects && opts.Mode == ModeExist {
		// Effects flow out of the appearance (appear → {exist, derive,
		// send}); rooting at the exist vertex would miss the immediate
		// consequences.
		opts.Mode = ModeAppear
	}
	var best *provgraph.Vertex
	for _, v := range g.TupleVertices(node, tuple) {
		switch opts.Mode {
		case ModeExist:
			// Believed remote tuples are represented by believe vertices on
			// the believer, so both satisfy an "exists" query.
			if v.Type != provgraph.VExist && v.Type != provgraph.VBelieve {
				continue
			}
			if opts.At != 0 && (v.T1 > opts.At || v.T2 < opts.At) {
				continue
			}
		case ModeAppear:
			if (v.Type != provgraph.VAppear && v.Type != provgraph.VBelieveAppear) ||
				(opts.At != 0 && v.T1 > opts.At) {
				continue
			}
		case ModeDisappear:
			if (v.Type != provgraph.VDisappear && v.Type != provgraph.VBelieveDisappear) ||
				(opts.At != 0 && v.T1 > opts.At) {
				continue
			}
		}
		if best == nil || v.T1 > best.T1 ||
			(v.T1 == best.T1 && v.Type == provgraph.VExist && best.Type == provgraph.VBelieve) {
			best = v
		}
	}
	return best
}

// CausalHorizon returns the EndHint for the Causes query that opts asks about
// tuple on node, whose log must have been audited: the root's time plus
// DeltaClock + 2·Tprop + Tbatch, in the local time of whichever node it is
// handed to. The root's time is the end of its interval if that has closed (a
// closed exist vertex is also explained by the disappearance that closed it).
//
// The contract. No cause happens after its effect and correct clocks differ
// by at most DeltaClock, so no cause of the root lies past root + DeltaClock
// on any node's clock. A send logged by then is acknowledged within 2·Tprop,
// or is old enough at the first entry past the horizon for flagUnacked's own
// cutoff (that entry's time − 2·Tprop) to judge it; the snd entry of a
// batched output is at most Tbatch late. So the prefix of a log that ends
// with its first entry past the horizon — what RetrieveRequest.EndTime asks
// for — gives every vertex a cause walk can reach the neighbourhood and the
// color the whole log would, with one exception: an interval vertex of a
// crossed node that closes after the horizon is still open, as it was when
// the root happened. What the prefix leaves out is whatever the node did
// afterwards, and what Finalize flags at its end is no cause of the root. An
// Explain bounded this way therefore vouches for the vertices it shows and
// for the prefixes it audited, not for the rest of the logs it crossed: a
// fault that surfaces there is the audit sweep's to find.
//
// Zero (no bound) when the query is not a Causes query or has no root.
func (q *Querier) CausalHorizon(node types.NodeID, tuple types.Tuple, opts QueryOpts) types.Time {
	if opts.Direction != Causes {
		return 0
	}
	root := q.findRoot(node, tuple, opts)
	if root == nil {
		return 0
	}
	t := root.T1
	if root.Interval() && !root.Open() {
		t = root.T2
	}
	cfg := q.Auditor.cfg
	return t + cfg.DeltaClock + 2*cfg.Tprop + cfg.Tbatch
}

// crossing is the retrieve that audits host when a walk under opts crosses
// onto it: §5.4's retrieve(v, a) — the prefix of host's log through EndHint,
// anchored on the latest commitment of host's within it that the audited logs
// carry — or, without a bound or without such evidence, host's whole log.
func (q *Querier) crossing(host types.NodeID, opts QueryOpts) RetrieveRequest {
	if opts.Direction == Causes && opts.EndHint != 0 {
		if auth, ok := q.Auditor.heldEvidence(host, opts.EndHint); ok {
			return RetrieveRequest{Auth: auth, EndTime: opts.EndHint}
		}
	}
	return RetrieveRequest{}
}

// expand is the recursive macroquery walk: each visited vertex is resolved
// via the shared graph, auditing new hosts as the traversal crosses node
// boundaries (exactly the repeated microquery navigation of §4.4).
func (q *Querier) expand(v *provgraph.Vertex, opts QueryOpts, depth int, visited map[*provgraph.Vertex]bool) *Explanation {
	q.Metrics.Microqueries++
	e := &Explanation{Vertex: v}
	// Crossing onto another node: audit it so the vertex can be verified
	// and its neighborhood reconstructed.
	if !q.Auditor.Audited(v.Host) {
		if err := q.ensureAudited(v.Host, q.crossing(v.Host, opts)); err == nil {
			q.Auditor.Finalize()
		}
	}
	e.Color, e.Note = q.colorOf(v)
	if visited[v] {
		e.Revisit = true
		return e
	}
	visited[v] = true
	if opts.Scope > 0 && depth >= opts.Scope {
		e.Truncated = true
		return e
	}
	var next []*provgraph.Vertex
	if opts.Direction == Causes {
		next = v.In()
	} else {
		next = v.Out()
	}
	ordered := append([]*provgraph.Vertex(nil), next...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID() < ordered[j].ID() })
	for _, w := range ordered {
		e.Children = append(e.Children, q.expand(w, opts, depth+1, visited))
	}
	if v.FromCheckpoint && opts.Direction == Causes && len(e.Children) == 0 {
		e.Note = "state restored from checkpoint; causes in an earlier log segment"
	}
	return e
}

// ---------------------------------------------------------------------------
// Explanation inspection and rendering.

// FindColor returns all explanations in the tree with the given resolved
// color.
func (e *Explanation) FindColor(c provgraph.Color) []*Explanation {
	var out []*Explanation
	e.walk(func(x *Explanation) {
		if x.Color == c {
			out = append(out, x)
		}
	})
	return out
}

// FaultyNodes returns the set of hosts with red vertices in the answer,
// sorted.
func (e *Explanation) FaultyNodes() []types.NodeID {
	seen := map[types.NodeID]bool{}
	for _, r := range e.FindColor(provgraph.Red) {
		seen[r.Vertex.Host] = true
	}
	out := make([]types.NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of explanation nodes in the tree.
func (e *Explanation) Size() int {
	n := 0
	e.walk(func(*Explanation) { n++ })
	return n
}

// Walk visits every explanation node in the tree, depth-first.
func (e *Explanation) Walk(f func(*Explanation)) { e.walk(f) }

func (e *Explanation) walk(f func(*Explanation)) {
	f(e)
	for _, c := range e.Children {
		c.walk(f)
	}
}

// Format renders the explanation as an indented tree in the style of the
// paper's Figure 2.
func (e *Explanation) Format() string {
	var sb strings.Builder
	e.format(&sb, 0)
	return sb.String()
}

func (e *Explanation) format(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(e.Vertex.Label())
	if e.Color != provgraph.Black {
		fmt.Fprintf(sb, "  [%s]", strings.ToUpper(e.Color.String()))
	}
	if e.Note != "" {
		fmt.Fprintf(sb, "  (%s)", e.Note)
	}
	switch {
	case e.Revisit:
		sb.WriteString("  (see above)")
	case e.Truncated:
		sb.WriteString("  (scope limit)")
	}
	sb.WriteByte('\n')
	for _, c := range e.Children {
		c.format(sb, depth+1)
	}
}

func (m QueryMode) String() string {
	switch m {
	case ModeExist:
		return "exist"
	case ModeAppear:
		return "appear"
	case ModeDisappear:
		return "disappear"
	default:
		return fmt.Sprintf("mode(%d)", m)
	}
}

// wallNow and wallSince isolate the querier's only wall-clock reads: the
// query-turnaround metrics of Figure 8 (Metrics.ReplayTime, VerifyTime,
// prepDur), which report how long an audit took on this machine. They
// never feed replayed state, message contents, or a deterministic metric
// series, so the determinism invariant is unaffected; keeping them behind
// these two excused helpers keeps every other wall-clock read in the
// package a detpure finding.

//snpvet:allow detpure wall-clock audit-latency metric only (Metrics.ReplayTime/VerifyTime); never feeds replayed state or a deterministic series
func wallNow() time.Time { return time.Now() }

//snpvet:allow detpure wall-clock audit-latency metric only (Metrics.ReplayTime/VerifyTime); never feeds replayed state or a deterministic series
func wallSince(t time.Time) time.Duration { return time.Since(t) }
