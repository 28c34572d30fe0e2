// Package queryfront is the live query frontend: a daemon that serves
// provenance macroqueries (§5.1) against a running deployment. It is a
// transport.Server with three registered kinds — stats, answered inline, and
// explain and audit, whose run half is admission (enqueue or shed) — so the
// listener, the whole-request validation and the drain on Close are the
// ones the nodes' own servers use. Clients submit Explain and audit queries; the
// frontend answers them from a bounded pool of Querier sessions — each
// driven by one goroutine, as core.Querier requires — that share one
// transport.Cluster, per-session RemoteFetchers, and one persistent audit
// cache. The pool is the first source of concurrency; the cores it cannot
// occupy (GOMAXPROCS / Sessions per session, at least one) go to each
// query's own audit pipeline, so a whole-deployment audit on a lightly
// loaded frontend prepares its nodes in parallel; a single-node audit has
// nothing to prepare ahead, and an Explain, which learns the next node from
// the walk, opens no scope at all: its spare core replays each log the walk
// audits while the commit builds the graph from what that replay has
// produced so far (core.Querier's streamed audit). Overload is handled the
// way the transport handles full peer queues: a bounded admission queue
// sheds and counts rather
// than blocking or violating deadlines, and FrontStats exposes the counters (served/
// shed/expired/failed, cache hit ratio, ledger hits and held bytes, partial
// notes merges, per-kind p50/p99) over a stats RPC on the same listener.
//
// The evidence semantics are unchanged by the extra hop: every query merges
// the deployment's §5.4 missing-ack notes first (so honest nodes with unacked
// sends surface as leads, never as provable evidence), audits with a fresh
// Auditor — an audit query's over the shared cache, where an answer with
// evidence that used a cache recording is asked again without the cache,
// since a recording may confirm but never accuse
// (core.Querier.ForgetRecordings); an Explain's over no cache at all — and reports
// unreachable peers as unattributable leads (§4.2's "unavailable" tier).
//
// One kind of query need not audit again. SNP audits work from authenticators
// (§5.4–5.5): once a node's log has been verified and replayed up to a head it
// signed, and found clean, nothing about that node can change until the head
// or the notes do. So the frontend keeps a ledger of audited heads (ledger.go).
// An audit of a single target that ran in full and found nothing — no failure,
// no red host, the target responsive, the notes merge complete — records the
// target's verified chain hashes (one hash per log entry) and the notes it was
// scored against. A later audit of that target is a hit if the notes merge is
// complete and equal and the target's LatestAuth is its valid signature over
// exactly the held head; an extension, a rollback or a fork moves the head, and
// the full audit runs. A hit skips retrieve, verification, replay and graph
// construction, whose result is on record, and runs the part of the sweep that
// depends on the peers: every peer's authenticators about the target, checked
// against the held chain by the code that checks them against a retrieved one.
// It reads only those the peer added since the last hit: the entry keeps a
// cursor per peer (transport.AuthCursor, the served instance's epoch and how
// far into its list the check got), and a hit asks each peer for what lies
// past it (RemoteFetcher.AuthsSince) and leaves the cursors it reached on the
// entry. What it skips cannot turn red — an authenticator and the held chain
// never change, and an honest peer's list only grows within an epoch — and a
// peer that misstates its list only withholds evidence, which it always could.
// Its answer is the full audit's. An entry is dropped when it cannot be
// confirmed, when the live check finds a fork, or to keep the chains held
// under ledgerCap; held state can only ever confirm "still clean", never
// accuse. Audits of several targets neither read nor fill the ledger, and
// Explains read and fill neither the ledger nor the audit cache.
//
// What an Explain attests. A Causes query audits the root's log through its
// head and asks every node the walk crosses onto for the paper's
// retrieve(v, a): the prefix of its log through the root's causal horizon
// (core.Querier.CausalHorizon), anchored on a commitment of that node's which
// an already audited log carries. No cause of the root lies past the horizon,
// so the explanation is the one whole logs would give; but the answer vouches
// only for the vertices it shows and for the audited prefix of each log it
// crossed, which ExplainResult.Audited lists. A fault that surfaces later in
// a crossed log — a fork after the horizon, a send suppressed tomorrow — is
// the audit sweep's to find, as in the paper; an audit query still reads
// every log to its head. Effects queries are not bounded.
package queryfront

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/quantile"
	"repro/internal/seclog"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config configures a frontend. Cluster, Dir, and Factory are required;
// everything else has serviceable defaults.
type Config struct {
	// Cluster is the transport the deployment runs on. The frontend uses
	// it purely as an audit client (NewFetcher); it never serves node
	// traffic itself.
	Cluster *transport.Cluster
	// Base is the audit-side core configuration: Tprop, DeltaClock,
	// Suite, and — for a persistent cache shared across sessions' audit
	// queries; Explains read none — AuditCache. It must match the deployment's protocol parameters or
	// replay verification will misjudge commitment deadlines.
	Base core.Config
	// Dir is the key directory covering the deployment's membership.
	Dir *core.Directory
	// Factory builds replay machines for audited nodes.
	Factory types.MachineFactory
	// ConfigureQuerier installs app-specific audit hooks on each query's
	// fresh Querier (e.g. BGP's maybe-rule validator). May be nil.
	ConfigureQuerier func(*core.Querier)

	// Sessions bounds the querier pool (default 4). Each session is one
	// goroutine owning one RemoteFetcher; queries never share a Querier. A
	// session's queries get GOMAXPROCS / Sessions audit workers (at least
	// one, which means none: see core.Querier.Parallelism).
	Sessions int
	// QueueLen bounds the admission queue (default 4×Sessions). A full
	// queue sheds new queries with a counted, in-band error.
	QueueLen int
	// QueryTimeout is the per-query deadline, admission queue included
	// (default 15s). Queries that outwait it in the queue are dropped
	// unexecuted; remote-call budgets of running queries are clamped to
	// the time remaining.
	QueryTimeout time.Duration
	// CallTimeout / RetryDeadline bound each session's remote audit
	// calls: per-attempt and total per logical call (defaults
	// transport.AuditCallTimeout / AuditRetryDeadline).
	CallTimeout   time.Duration
	RetryDeadline time.Duration
}

// frontID names the frontend on the wire and to fault plans (session
// fetchers dial as "queryfront-<n>"); answers are written under replyTimeout.
const (
	frontID      types.NodeID = "queryfront"
	replyTimeout              = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 4 * c.Sessions
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 15 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = transport.AuditCallTimeout
	}
	if c.RetryDeadline <= 0 {
		c.RetryDeadline = transport.AuditRetryDeadline
	}
	return c
}

// request is one admitted query waiting for a session: exactly one of
// explain and audit is set.
type request struct {
	explain  *ExplainRequest
	audit    *AuditRequest
	reply    transport.Reply
	admitted time.Time
}

// latRing keeps the most recent latency samples for one query kind plus a
// lifetime count; percentiles are nearest-rank over the retained window.
type latRing struct {
	mu    sync.Mutex
	buf   []time.Duration
	next  int
	count uint64
}

const latWindow = 512

func (l *latRing) record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < latWindow {
		l.buf = append(l.buf, d)
	} else {
		l.buf[l.next] = d
		l.next = (l.next + 1) % latWindow
	}
	l.count++
}

func (l *latRing) snapshot() (count uint64, p50, p99 time.Duration) {
	l.mu.Lock()
	samples := append([]time.Duration(nil), l.buf...)
	count = l.count
	l.mu.Unlock()
	return count, quantile.Duration(samples, 50), quantile.Duration(samples, 99)
}

// Server is a running query frontend.
type Server struct {
	cfg Config
	srv *transport.Server

	queue chan *request
	quit  chan struct{}
	once  sync.Once      // closes quit
	wg    sync.WaitGroup // session workers

	served  atomic.Uint64
	shed    atomic.Uint64
	expired atomic.Uint64
	failed  atomic.Uint64

	notesSyncErrs atomic.Uint64

	// cacheHits0/cacheMisses0 are the shared cache's counters at start;
	// Stats reports deltas so a pre-warmed cache does not skew the ratio.
	cacheHits0   uint64
	cacheMisses0 uint64

	ledger *ledger

	mu    sync.Mutex
	kinds map[string]*latRing
}

// Serve starts a frontend listening on addr ("host:0" picks a port; see
// Addr). The frontend owns the listener and its session pool; it does not
// own cfg.Cluster or cfg.Base.AuditCache — the caller closes those after
// Close returns.
func Serve(cfg Config, addr string) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Cluster == nil || cfg.Dir == nil || cfg.Factory == nil {
		return nil, fmt.Errorf("queryfront: Config needs Cluster, Dir, and Factory")
	}
	s := &Server{
		cfg:   cfg,
		srv:   &transport.Server{ID: frontID, MaxFrame: transport.DefaultMaxFrame, WriteTimeout: replyTimeout},
		queue: make(chan *request, cfg.QueueLen),
		quit:  make(chan struct{}),
		kinds: map[string]*latRing{},

		ledger: newLedger(),
	}
	for kind, h := range s.handlers() {
		s.srv.Handle(kind, h)
	}
	if err := s.srv.Listen(addr); err != nil {
		return nil, err
	}
	if c := cfg.Base.AuditCache; c != nil {
		s.cacheHits0, s.cacheMisses0 = c.Hits(), c.Misses()
	}
	for i := 0; i < cfg.Sessions; i++ {
		s.wg.Add(1)
		go s.session(i)
	}
	s.srv.Start()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops accepting, tears down client connections and the session
// pool, and waits for in-flight queries to finish. Queued-but-unstarted
// queries are dropped; their clients see their connections close.
func (s *Server) Close() {
	s.once.Do(func() { close(s.quit) })
	s.srv.Close()
	s.wg.Wait()
}

// Stats snapshots the frontend's counters.
func (s *Server) Stats() FrontStats {
	st := FrontStats{
		Sessions: s.cfg.Sessions,
		QueueCap: s.cfg.QueueLen,
		Served:   s.served.Load(),
		Shed:     s.shed.Load(),
		Expired:  s.expired.Load(),
		Failed:   s.failed.Load(),

		NotesSyncErrors: s.notesSyncErrs.Load(),
	}
	s.ledger.fill(&st)
	if c := s.cfg.Base.AuditCache; c != nil {
		st.CacheHits = c.Hits() - s.cacheHits0
		st.CacheMisses = c.Misses() - s.cacheMisses0
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.kinds))
	for name := range s.kinds {
		names = append(names, name)
	}
	rings := make([]*latRing, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		rings = append(rings, s.kinds[name])
	}
	s.mu.Unlock()
	for i, name := range names {
		count, p50, p99 := rings[i].snapshot()
		st.Kinds = append(st.Kinds, KindStats{Kind: name, Count: count, P50: p50, P99: p99})
	}
	return st
}

func (s *Server) ring(kind string) *latRing {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.kinds[kind]
	if !ok {
		r = &latRing{}
		s.kinds[kind] = r
	}
	return r
}

// handlers returns the frontend's kinds: each decodes its request, and runs
// by answering inline (stats) or going through admission (explain, audit).
func (s *Server) handlers() map[byte]transport.Handler {
	return map[byte]transport.Handler{
		FrameStatsReq: func(types.NodeID, *wire.Reader) func(transport.Reply) {
			return func(reply transport.Reply) { reply(nil, s.Stats().MarshalWire) }
		},
		FrameExplainReq: func(_ types.NodeID, r *wire.Reader) func(transport.Reply) {
			req := &request{explain: new(ExplainRequest)}
			r.Value(req.explain)
			return func(reply transport.Reply) { s.admit(req, reply) }
		},
		FrameAuditReq: func(_ types.NodeID, r *wire.Reader) func(transport.Reply) {
			req := &request{audit: new(AuditRequest)}
			r.Value(req.audit)
			return func(reply transport.Reply) { s.admit(req, reply) }
		},
	}
}

// admit queues one decoded query for a session, or sheds it: shed-and-count,
// mirroring Cluster.Send's full-queue semantics, so the client gets an
// immediate in-band error instead of unbounded queueing.
func (s *Server) admit(req *request, reply transport.Reply) {
	req.reply = reply
	req.admitted = time.Now()
	select {
	case s.queue <- req:
	default:
		s.shed.Add(1)
		reply(fmt.Errorf("overloaded: admission queue full (%d queued, %d sessions)",
			s.cfg.QueueLen, s.cfg.Sessions), nil)
	}
}

// auditFetcher is what a session's queries ask of the deployment: the audit
// RPCs, the §5.4 notes merge, and the ledger's incremental §5.5 reads. A
// session's is a transport.RemoteFetcher.
type auditFetcher interface {
	core.Fetcher
	SyncNotes(*core.Maintainer) error
	AuthsSince(observer, target types.NodeID, from transport.AuthCursor) ([]seclog.Authenticator, transport.AuthCursor, error)
}

// session is one pool worker: a goroutine that owns one RemoteFetcher and
// runs admitted queries serially. A query that audits gets a fresh Auditor and
// Querier, driven by this goroutine alone (the single-goroutine contract),
// over the shared persistent cache; nothing but the cache, the cluster and
// the ledger of audited heads is shared between sessions. Within a query the
// Querier's audit workers call the session's fetcher concurrently, which
// RemoteFetcher allows.
func (s *Server) session(i int) {
	defer s.wg.Done()
	fetch := s.cfg.Cluster.NewFetcher(types.NodeID(fmt.Sprintf("%s-%d", frontID, i)))
	defer fetch.Close()
	for {
		select {
		case <-s.quit:
			return
		case req := <-s.queue:
			s.run(fetch, req)
		}
	}
}

// run executes one admitted query on a session's fetcher.
func (s *Server) run(fetch *transport.RemoteFetcher, req *request) {
	remaining := s.cfg.QueryTimeout - time.Since(req.admitted)
	if remaining <= 0 {
		s.expired.Add(1)
		req.reply(fmt.Errorf("deadline expired after %v in the admission queue", time.Since(req.admitted).Round(time.Millisecond)), nil)
		return
	}
	// Clamp the remote-call budgets to the time this query has left, so a
	// query that waited in the queue cannot blow its deadline inside one
	// slow unreachable peer.
	fetch.CallTimeout = min(s.cfg.CallTimeout, remaining)
	fetch.RetryDeadline = min(s.cfg.RetryDeadline, remaining)

	if req.explain != nil {
		res, err := s.explain(fetch, req.explain)
		s.finish(req, "explain", err, func(w *wire.Writer) {
			res.Elapsed = time.Since(req.admitted)
			res.MarshalWire(w)
		})
	} else {
		res := auditResultOf(s.audit(fetch, req.audit.Targets))
		s.finish(req, "audit", nil, func(w *wire.Writer) {
			res.Elapsed = time.Since(req.admitted)
			res.MarshalWire(w)
		})
	}
}

// syncNotes merges the deployment's §5.4 missing-ack reports before any
// evidence is scored, best-effort: unreachable nodes are the sweep's to
// report. complete is false when a node's reports may be missing.
func (s *Server) syncNotes(fetch auditFetcher) (maint *core.Maintainer, complete bool) {
	maint = core.NewMaintainer()
	if err := fetch.SyncNotes(maint); err != nil {
		s.notesSyncErrs.Add(1)
		return maint, false
	}
	return maint, true
}

// querier builds one query's fresh audit state, under base, over the merged
// notes.
func (s *Server) querier(fetch core.Fetcher, maint *core.Maintainer, base core.Config) *core.Querier {
	q := core.NewQuerier(core.NewAuditor(base, s.cfg.Dir, s.cfg.Factory, maint), fetch)
	// The session's share of the cores: with as many sessions as cores the
	// pool already fills the machine and every audit stays lazy and inline.
	q.Parallelism = max(1, runtime.GOMAXPROCS(0)/s.cfg.Sessions)
	if s.cfg.ConfigureQuerier != nil {
		s.cfg.ConfigureQuerier(q)
	}
	return q
}

// audit answers one audit query: one sweep of the targets (the whole
// membership when empty). Unreachable targets degrade to leads, never
// failures; the query's deadline is enforced through the fetcher's clamped
// budgets, so the sweep itself does not retry.
//
// A single target goes to the ledger first, and into it afterwards if its
// sweep found nothing. Only a single target: the verdict on several is not the
// union of theirs (implied-commitment cross-checks and send/receive matching
// see both graphs). And only over a complete notes merge, which both the
// entry and the comparison with it are made of.
func (s *Server) audit(fetch auditFetcher, targets []types.NodeID) *adversary.Verdict {
	maint, complete := s.syncNotes(fetch)
	single := len(targets) == 1
	if single && complete {
		if v := s.confirm(fetch, maint, targets[0]); v != nil {
			s.ledger.hits.Add(1)
			return v
		}
	}
	q := s.querier(fetch, maint, s.cfg.Base)
	v := adversary.Sweep(q, maint, targets, time.Time{}, 0)
	if single {
		s.ledger.misses.Add(1)
		if complete {
			s.ledger.record(targets[0], q.Auditor.AuditedHead(targets[0]), v)
		}
	}
	return v
}

// confirm answers a single-target audit from the ledger, or returns nil for
// the full audit to run (see the package comment for why this is sound). The
// entry must be confirmed by what the sweep's result depends on besides the
// peers: equal notes, and the target still signing exactly the held head. What
// remains of the sweep is the §5.5 consistency check against the held chain,
// run here on what each peer added to its list past the entry's cursor for it:
// what lies before was found on the chain already, and neither changes. Its
// failures are the only evidence a confirmed answer can carry. An entry that
// is not confirmed, or whose chain a peer's authenticator is off, loses its
// place; otherwise it makes way for one with the cursors this check reached.
func (s *Server) confirm(fetch auditFetcher, maint *core.Maintainer, target types.NodeID) *adversary.Verdict {
	e := s.ledger.lookup(target)
	if e == nil {
		return nil
	}
	notes := maint.Notes()
	confirmed := slices.Equal(notes, e.notes)
	if confirmed {
		auth, err := fetch.LatestAuth(target)
		confirmed = err == nil && e.head.Confirms(s.cfg.Dir, auth)
	}
	if !confirmed {
		s.ledger.drop(target, e)
		return nil
	}
	v := &adversary.Verdict{Unresponsive: map[types.NodeID]error{}, Notes: notes}
	next := &ledgerEntry{head: e.head, notes: e.notes, cursors: make(map[types.NodeID]transport.AuthCursor, len(e.cursors))}
	// Peers in core.CheckConsistency's order, each list in its own: a fork is
	// worded and ordered as a full audit words and orders it.
	for _, peer := range fetch.Nodes() {
		if peer == target {
			continue
		}
		auths, cur, err := fetch.AuthsSince(peer, target, e.cursors[peer])
		if err != nil {
			cur = e.cursors[peer] // what it withheld is read on the next hit
		}
		next.cursors[peer] = cur
		for _, a := range auths {
			if f, forked := e.head.CheckAuthenticator(s.cfg.Dir, nil, a); forked {
				v.Failures = append(v.Failures, f)
			}
		}
	}
	if len(v.Failures) != 0 {
		s.ledger.drop(target, e)
	} else {
		s.ledger.advance(target, e, next)
	}
	return v
}

// finish accounts one executed query and sends its response.
func (s *Server) finish(req *request, kind string, err error, body func(*wire.Writer)) {
	if err != nil {
		s.failed.Add(1)
		req.reply(err, nil)
		return
	}
	s.served.Add(1)
	s.ring(kind).record(time.Since(req.admitted))
	req.reply(nil, body)
}

// explain answers one Explain macroquery. It audits afresh whatever the
// ledger holds: the answer is a walk of the graph a ledger entry does not keep.
// It replays every log through a replica, never from the audit cache, so
// each audit streams its replay into its commit (see core.Querier). See the
// package comment for what the answer attests.
func (s *Server) explain(fetch auditFetcher, er *ExplainRequest) (*ExplainResult, error) {
	maint, _ := s.syncNotes(fetch)
	base := s.cfg.Base
	base.AuditCache = nil
	q := s.querier(fetch, maint, base)
	if err := q.EnsureAudited(er.Node, er.StartHint); err != nil {
		// The query's root node is unreachable: that is an answer for the
		// leads tier, not a retryable transport failure, but with no
		// vertex to hang it on we surface it as a query error.
		return nil, fmt.Errorf("root node %s unreachable: %w", er.Node, err)
	}
	// The root's log is audited in full; a log the walk crosses onto, through
	// the root's causal horizon (this Querier answers nothing else).
	opts := er.Opts()
	opts.EndHint = q.CausalHorizon(er.Node, er.Tuple, opts)
	expl, err := q.Explain(er.Node, er.Tuple, opts)
	if err != nil {
		return nil, err
	}
	q.Auditor.Finalize()
	res := &ExplainResult{
		Rendered: expl.Format(),
		Vertices: expl.Size(),
		Faulty:   expl.FaultyNodes(),
	}
	res.Unreachable = leads(q.Unreachable())
	for _, id := range slices.Sorted(slices.Values(fetch.Nodes())) {
		if from, to, through, ok := q.Auditor.AuditedSpan(id); ok {
			res.Audited = append(res.Audited, AuditedSpan{Node: id, From: from, To: to, Through: through})
		}
	}
	return res, nil
}

// leads flattens an unreachable map into a wire-stable sorted slice.
func leads(m map[types.NodeID]error) []Lead {
	out := make([]Lead, 0, len(m))
	for id, err := range m {
		out = append(out, Lead{Node: id, Err: err.Error()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
