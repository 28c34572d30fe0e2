// Package queryfront is the live query frontend: a daemon that serves
// provenance macroqueries (§5.1) over the framed-TCP transport against a
// running deployment. Clients submit Explain and audit queries; the
// frontend answers them from a bounded pool of Querier sessions — each
// driven by one goroutine, as core.Querier requires — that share one
// transport.Cluster, per-session RemoteFetchers, and one persistent audit
// cache. The pool is the first source of concurrency; the cores it cannot
// occupy (GOMAXPROCS / Sessions per session, at least one) go to each
// query's own audit pipeline, so a whole-deployment audit on a lightly
// loaded frontend prepares its nodes in parallel, while a single-node
// audit or an Explain — scopes of one node — stays lazy whatever the
// share. Overload is handled the way the transport handles full peer
// queues: a bounded admission queue sheds and counts rather than blocking
// or violating deadlines, and FrontStats exposes the counters (served/
// shed/expired/failed, cache hit ratio, per-kind p50/p99) over a stats
// RPC on the same listener.
//
// The evidence semantics are unchanged by the extra hop: every query runs
// a fresh Auditor over the shared cache, merges the deployment's §5.4
// missing-ack notes first (so honest nodes with unacked sends surface as
// leads, never as provable evidence), and reports unreachable peers as
// unattributable leads (§4.2's "unavailable" tier).
package queryfront

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/quantile"
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
	// Suite, and — for a persistent cache shared across sessions —
	// AuditCache. It must match the deployment's protocol parameters or
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
	// MaxFrame bounds frames on the query listener (default the
	// transport default).
	MaxFrame int
	// ID names the frontend on the wire and to fault plans (default
	// "queryfront"); session fetchers dial as "<ID>-<n>".
	ID types.NodeID
}

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
	if c.MaxFrame <= 0 {
		c.MaxFrame = transport.DefaultMaxFrame
	}
	if c.ID == "" {
		c.ID = "queryfront"
	}
	return c
}

// request is one admitted query waiting for a session.
type request struct {
	kind     byte
	reqID    uint64
	explain  *ExplainRequest
	audit    *AuditRequest
	conn     *frontConn
	admitted time.Time
	deadline time.Time
}

// frontConn serializes response writes to one client connection: session
// workers finish out of order, so each response write takes the lock.
type frontConn struct {
	conn net.Conn
	wmu  sync.Mutex
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
	ln  net.Listener

	queue chan *request
	quit  chan struct{}
	wg    sync.WaitGroup

	served  atomic.Uint64
	shed    atomic.Uint64
	expired atomic.Uint64
	failed  atomic.Uint64

	// cacheHits0/cacheMisses0 are the shared cache's counters at start;
	// Stats reports deltas so a pre-warmed cache does not skew the ratio.
	cacheHits0   uint64
	cacheMisses0 uint64

	mu      sync.Mutex
	kinds   map[string]*latRing
	closing bool
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		queue: make(chan *request, cfg.QueueLen),
		quit:  make(chan struct{}),
		kinds: map[string]*latRing{},
	}
	if c := cfg.Base.AuditCache; c != nil {
		s.cacheHits0, s.cacheMisses0 = c.Hits(), c.Misses()
	}
	for i := 0; i < cfg.Sessions; i++ {
		s.wg.Add(1)
		go s.session(i)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, tears down client connections and the session
// pool, and waits for in-flight queries to finish. Queued-but-unstarted
// queries are dropped; their clients see their connections close.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	s.closing = true
	s.mu.Unlock()
	close(s.quit)
	s.ln.Close()
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
	}
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

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn reads query frames off one client connection until it closes
// or turns hostile (decode error, unknown kind). Stats requests are
// answered inline; explain/audit requests go through the admission queue.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	fc := &frontConn{conn: conn}
	// Unblock the read when the server shuts down mid-connection.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.quit:
			conn.Close()
		case <-stop:
		}
	}()
	for {
		payload, err := transport.ReadFrame(conn, s.cfg.MaxFrame)
		if err != nil {
			return
		}
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		switch req.kind {
		case FrameStatsReq:
			body := s.Stats()
			_ = s.reply(fc, FrameStatsResp, req.reqID, nil, body.MarshalWire)
		case FrameExplainReq, FrameAuditReq:
			req.conn = fc
			req.admitted = time.Now()
			req.deadline = req.admitted.Add(s.cfg.QueryTimeout)
			select {
			case s.queue <- req:
			default:
				// Shed-and-count, mirroring Cluster.Send's full-queue
				// semantics: the client gets an immediate in-band error
				// instead of unbounded queueing.
				s.shed.Add(1)
				_ = s.reply(fc, req.kind+1, req.reqID,
					fmt.Errorf("overloaded: admission queue full (%d queued, %d sessions)",
						s.cfg.QueueLen, s.cfg.Sessions), nil)
			}
		}
	}
}

// decodeRequest parses one query frame into a request. Hostile input —
// truncated bodies, implausible counts, unknown kinds — returns an error.
func decodeRequest(payload []byte) (*request, error) {
	_, kind, r, err := transport.BeginFrame(payload)
	if err != nil {
		return nil, err
	}
	req := &request{kind: kind, reqID: r.Uint()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case FrameExplainReq:
		req.explain = new(ExplainRequest)
		if err := req.explain.UnmarshalWire(r); err != nil {
			return nil, err
		}
	case FrameAuditReq:
		req.audit = new(AuditRequest)
		if err := req.audit.UnmarshalWire(r); err != nil {
			return nil, err
		}
	case FrameStatsReq:
		// no body
	default:
		return nil, fmt.Errorf("queryfront: unknown query frame kind %d", kind)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// reply writes one response frame (transport.ReplyFrame's layout).
func (s *Server) reply(fc *frontConn, kind byte, reqID uint64, qerr error, body func(*wire.Writer)) error {
	buf, err := transport.ReplyFrame(s.cfg.ID, kind, reqID, s.cfg.MaxFrame, qerr, body)
	if err != nil {
		return err
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	fc.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_, werr := fc.conn.Write(buf)
	return werr
}

// session is one pool worker: a goroutine that owns one RemoteFetcher and
// runs admitted queries serially. Each query gets a fresh Auditor and
// Querier, driven by this goroutine alone (the single-goroutine contract),
// over the shared persistent cache; nothing but the cache and the cluster
// is shared between sessions. Within a query the Querier's audit workers
// call the session's fetcher concurrently, which RemoteFetcher allows.
func (s *Server) session(i int) {
	defer s.wg.Done()
	fetch := s.cfg.Cluster.NewFetcher(types.NodeID(fmt.Sprintf("%s-%d", s.cfg.ID, i)))
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
	remaining := time.Until(req.deadline)
	if remaining <= 0 {
		s.expired.Add(1)
		_ = s.reply(req.conn, req.kind+1, req.reqID,
			fmt.Errorf("deadline expired after %v in the admission queue", time.Since(req.admitted).Round(time.Millisecond)), nil)
		return
	}
	// Clamp the remote-call budgets to the time this query has left, so a
	// query that waited in the queue cannot blow its deadline inside one
	// slow unreachable peer.
	fetch.CallTimeout = min(s.cfg.CallTimeout, remaining)
	fetch.RetryDeadline = min(s.cfg.RetryDeadline, remaining)

	// Merge the deployment's §5.4 missing-ack reports before any evidence
	// is scored, best-effort: unreachable nodes are the sweep's to report.
	maint := core.NewMaintainer()
	_ = fetch.SyncNotes(maint)
	auditor := core.NewAuditor(s.cfg.Base, s.cfg.Dir, s.cfg.Factory, maint)
	q := core.NewQuerier(auditor, fetch)
	// The session's share of the cores: with as many sessions as cores the
	// pool already fills the machine and every audit stays lazy.
	q.Parallelism = max(1, runtime.GOMAXPROCS(0)/s.cfg.Sessions)
	if s.cfg.ConfigureQuerier != nil {
		s.cfg.ConfigureQuerier(q)
	}

	switch req.kind {
	case FrameExplainReq:
		res, err := s.runExplain(q, req.explain)
		s.finish(req, "explain", err, func(w *wire.Writer) {
			res.Elapsed = time.Since(req.admitted)
			res.MarshalWire(w)
		})
	case FrameAuditReq:
		// One sweep of the targets (the whole membership when empty).
		// Unreachable targets degrade to leads, never failures; the query's
		// deadline is enforced through the fetcher's clamped budgets, so the
		// sweep itself does not retry.
		res := auditResultOf(adversary.Sweep(q, maint, req.audit.Targets, time.Time{}, 0))
		s.finish(req, "audit", nil, func(w *wire.Writer) {
			res.Elapsed = time.Since(req.admitted)
			res.MarshalWire(w)
		})
	}
}

// finish accounts one executed query and sends its response.
func (s *Server) finish(req *request, kind string, err error, body func(*wire.Writer)) {
	if err != nil {
		s.failed.Add(1)
		_ = s.reply(req.conn, req.kind+1, req.reqID, err, nil)
		return
	}
	s.served.Add(1)
	s.ring(kind).record(time.Since(req.admitted))
	_ = s.reply(req.conn, req.kind+1, req.reqID, nil, body)
}

// runExplain answers one Explain macroquery.
func (s *Server) runExplain(q *core.Querier, er *ExplainRequest) (*ExplainResult, error) {
	q.BeginAuditScope([]types.NodeID{er.Node}, er.StartHint)
	defer q.CloseScope()
	if err := q.EnsureAudited(er.Node, er.StartHint); err != nil {
		// The query's root node is unreachable: that is an answer for the
		// leads tier, not a retryable transport failure, but with no
		// vertex to hang it on we surface it as a query error.
		return nil, fmt.Errorf("root node %s unreachable: %w", er.Node, err)
	}
	expl, err := q.Explain(er.Node, er.Tuple, er.Opts())
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
