package transport

// The audit control plane over TCP: queriers retrieve log segments, fresh
// authenticators, and peer-held evidence from live nodes with the same
// framing the data plane uses. Each call is one request/response exchange
// on a per-target connection; the RemoteFetcher below retries transient
// network failures with backoff until a deadline, then surfaces a checked
// error — which the querier records as an unreachable (yellow) node, an
// unattributable lead, never a provable accusation.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// Audit request kinds (disjoint from the data-plane kinds); a response's
// kind is its request's plus one. The range 0x20–0x2F is reserved for the
// query frontend (internal/queryfront), which speaks the same framing on its
// own listener.
const (
	frameRetrieveReq byte = 0x10
	frameAuthReq     byte = 0x12
	frameAuthsReq    byte = 0x14
)

func isRPCKind(k byte) bool { return k >= frameRetrieveReq && k <= frameNotesReq+1 }

// serveRPC answers one audit request on the connection it arrived on: each
// kind decodes its arguments into a handler, the request is validated as a
// whole, and only then is the node called. The node lock is held only for
// the node call itself; encoding and the response write happen outside it.
// A non-nil return closes the connection.
func (c *Cluster) serveRPC(m *member, conn net.Conn, from types.NodeID, kind byte, r *wire.Reader) error {
	reqID := r.Uint()
	// handle returns the answer as a body encoder or an in-band refusal.
	var handle func() (func(*wire.Writer), error)
	switch kind {
	case frameRetrieveReq:
		var req core.RetrieveRequest
		r.Value(&req)
		handle = func() (func(*wire.Writer), error) {
			m.mu.Lock()
			resp, err := m.node.HandleRetrieve(req)
			m.mu.Unlock()
			return func(w *wire.Writer) { resp.MarshalWire(w) }, err
		}
	case frameAuthReq:
		handle = func() (func(*wire.Writer), error) {
			m.mu.Lock()
			auth, err := m.node.LatestAuth()
			m.mu.Unlock()
			return func(w *wire.Writer) { auth.MarshalWire(w) }, err
		}
	case frameAuthsReq:
		target := types.NodeID(r.String())
		t1 := types.Time(r.Int())
		t2 := types.Time(r.Int())
		handle = func() (func(*wire.Writer), error) {
			m.mu.Lock()
			auths := m.node.AuthsAbout(target, t1, t2)
			m.mu.Unlock()
			return func(w *wire.Writer) {
				w.Uint(uint64(len(auths)))
				for i := range auths {
					auths[i].MarshalWire(w)
				}
			}, nil
		}
	case frameHealthReq:
		probeSeq := r.Uint()
		handle = func() (func(*wire.Writer), error) {
			return c.buildHealth(m, probeSeq).MarshalWire, nil
		}
	case frameNotesReq:
		handle = c.serveNotes
	default:
		c.decodeErrors.Add(1)
		return fmt.Errorf("transport: unknown audit frame kind %d", kind)
	}
	if err := r.Finish(); err != nil {
		c.decodeErrors.Add(1)
		return err
	}
	body, refusal := handle()
	c.rpcServed.Add(1)
	buf, err := ReplyFrame(m.node.ID, kind+1, reqID, c.cfg.MaxFrame, refusal, body)
	if err != nil {
		return err
	}
	return c.writeFrame(conn, buf)
}

// ReplyFrame builds one response frame, [len][from][kind][reqID][ok]
// followed by the body (ok) or rerr's text (refused) — the answering half
// of Exchange, shared by the node RPCs and the query frontend. An answer
// that outgrows maxFrame (a segment or an explanation bigger than the
// frame bound) is replaced by an in-band error, so the caller sees a
// checked failure instead of a hung read.
func ReplyFrame(from types.NodeID, kind byte, reqID uint64, maxFrame int, rerr error, body func(*wire.Writer)) ([]byte, error) {
	w := wire.NewWriter(512)
	w.Raw([]byte{0, 0, 0, 0})
	w.String(string(from))
	w.Byte(kind)
	w.Uint(reqID)
	if rerr != nil {
		w.Bool(false)
		w.String(rerr.Error())
	} else {
		w.Bool(true)
		body(w)
	}
	buf, err := FinishFrame(w, maxFrame)
	if err != nil && rerr == nil {
		return ReplyFrame(from, kind, reqID, maxFrame, err, nil)
	}
	return buf, err
}

// Exchange performs one request/response conversation on conn under
// timeout: it writes [len][from][kind][reqID][body] and reads frames until
// the answer to reqID arrives (kind+1; stale answers to abandoned requests
// on the same connection are skipped), then hands the body of an ok answer
// to parse. A *RemoteError return means the peer refused in-band (or the
// request outgrew maxFrame and was never sent) and conn is still usable;
// any other error means conn is broken and the caller must close it.
func Exchange(conn net.Conn, timeout time.Duration, maxFrame int, from types.NodeID, kind byte, reqID uint64,
	body func(*wire.Writer), parse func(*wire.Reader) error) error {
	w := wire.NewWriter(256)
	w.Raw([]byte{0, 0, 0, 0})
	w.String(string(from))
	w.Byte(kind)
	w.Uint(reqID)
	if body != nil {
		body(w)
	}
	buf, err := FinishFrame(w, maxFrame)
	if err != nil {
		return &RemoteError{Msg: err.Error()}
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	for {
		payload, err := ReadFrame(conn, maxFrame)
		if err != nil {
			return err
		}
		_, got, r, err := BeginFrame(payload)
		if err != nil {
			return err
		}
		if got != kind+1 {
			return fmt.Errorf("transport: unexpected response kind %d", got)
		}
		if r.Uint() != reqID {
			continue
		}
		if !r.Bool() {
			msg := r.String()
			if err := r.Err(); err != nil {
				return err
			}
			return &RemoteError{Msg: msg}
		}
		return parse(r)
	}
}

// RemoteError is an application-level failure reported in-band by a
// reachable peer (audit refused, empty log, evidence beyond head, frontend
// overloaded). It is final: the peer answered, so retrying the same request
// cannot change the outcome.
type RemoteError struct {
	Node types.NodeID // filled in by RemoteFetcher; empty from Exchange
	Msg  string
}

func (e *RemoteError) Error() string {
	if e.Node == "" {
		return "transport: " + e.Msg
	}
	return fmt.Sprintf("transport: %s: %s", e.Node, e.Msg)
}

// ErrFetcherClosed is returned by calls made on (or racing with) a closed
// RemoteFetcher. It is final: the caller tore the fetcher down, so
// retrying cannot succeed.
var ErrFetcherClosed = errors.New("transport: fetcher closed")

// minRetryBackoff floors the retry backoff. Without it a zero/unset
// RetryBase (a Cluster whose config was zeroed rather than built via
// NewClusterWith) turns the retry loop into a hot spin: jitter(0) is 0
// and backoff *= 2 keeps it at 0, so the loop hammers dial until the
// deadline.
const minRetryBackoff = 2 * time.Millisecond

// AuditCallTimeout and AuditRetryDeadline are the budgets the audit drivers
// (livetcp, multiproc, queryfront) give their fetchers unless configured
// otherwise: per attempt and per logical call, so an unreachable peer costs
// an audit at most the deadline.
const (
	AuditCallTimeout   = 500 * time.Millisecond
	AuditRetryDeadline = 2 * time.Second
)

// RemoteFetcher implements core.Fetcher over the wire: every audit call
// dials (or reuses) a connection to the target node and performs one
// request/response exchange under a per-attempt timeout, retrying with
// jittered exponential backoff until RetryDeadline. Unreachable or
// stalling peers therefore cost bounded time and surface as checked
// errors; the query layer records them as yellow vertices and the verdict
// layer as unattributable leads (§4.2's "unavailable" tier).
//
// A RemoteFetcher is safe for concurrent use (the querier's audit worker
// pool fans calls out); calls to the same target serialize on that
// target's connection.
type RemoteFetcher struct {
	// CallTimeout bounds each dial+write+read attempt (default 3s).
	CallTimeout time.Duration
	// RetryDeadline bounds the total time spent on one logical call,
	// retries included (default 10s). Application-level refusals are
	// final and are not retried.
	RetryDeadline time.Duration

	c  *Cluster
	id types.NodeID

	mu     sync.Mutex
	conns  map[types.NodeID]*rconn
	rng    *rand.Rand
	reqID  uint64
	closed bool
}

// rconn serializes the request/response exchanges against one target. mu
// orders whole exchanges; connMu guards just the conn pointer, which
// Close mutates from outside the exchange lock.
type rconn struct {
	mu     sync.Mutex
	connMu sync.Mutex
	conn   net.Conn
}

func (rc *rconn) get() net.Conn {
	rc.connMu.Lock()
	defer rc.connMu.Unlock()
	return rc.conn
}

// closeConn closes and clears the conn if present. Both Close and a
// failing attempt funnel through here, so a conn is closed exactly once.
func (rc *rconn) closeConn() {
	rc.connMu.Lock()
	if rc.conn != nil {
		rc.conn.Close()
		rc.conn = nil
	}
	rc.connMu.Unlock()
}

// NewFetcher builds a remote fetcher that audits this cluster's peers over
// TCP. id names the querier on the wire and to the fault plan, so plans
// can partition audit traffic (rules matching From: id) independently of
// the data plane.
func (c *Cluster) NewFetcher(id types.NodeID) *RemoteFetcher {
	h := fnv.New64a()
	h.Write([]byte(id))
	return &RemoteFetcher{
		CallTimeout:   3 * time.Second,
		RetryDeadline: 10 * time.Second,
		c:             c,
		id:            id,
		conns:         make(map[types.NodeID]*rconn),
		rng:           rand.New(rand.NewSource(c.cfg.Seed ^ int64(h.Sum64()))),
	}
}

// Close fails in-flight calls and drops the fetcher's connections. The
// pinned semantics: an in-flight exchange fails with a read/write error
// and is not retried (the retry loop then sees ErrFetcherClosed), later
// calls fail fast with ErrFetcherClosed, no connection is closed twice,
// and no connection leaks (an attempt whose dial races Close tears its
// own conn down). Close is idempotent and safe against concurrent calls.
func (f *RemoteFetcher) Close() {
	f.mu.Lock()
	f.closed = true
	conns := make([]*rconn, 0, len(f.conns))
	for _, rc := range f.conns {
		conns = append(conns, rc)
	}
	f.mu.Unlock()
	for _, rc := range conns {
		rc.closeConn()
	}
}

func (f *RemoteFetcher) rconnFor(node types.NodeID) (*rconn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrFetcherClosed
	}
	rc, ok := f.conns[node]
	if !ok {
		rc = &rconn{}
		f.conns[node] = rc
	}
	return rc, nil
}

func (f *RemoteFetcher) nextReqID() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reqID++
	return f.reqID
}

func (f *RemoteFetcher) jitter(backoff time.Duration) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return backoff/2 + time.Duration(f.rng.Int63n(int64(backoff/2)+1))
}

// call performs one logical audit call with retry-until-deadline.
func (f *RemoteFetcher) call(node types.NodeID, reqKind byte,
	body func(w *wire.Writer), parse func(r *wire.Reader) error) error {
	deadline := time.Now().Add(f.RetryDeadline)
	backoff := f.c.cfg.RetryBase
	if backoff < minRetryBackoff {
		backoff = minRetryBackoff
	}
	retryMax := f.c.cfg.RetryMax
	if retryMax <= 0 {
		// An unset cap must not pin the backoff at its floor; grow toward
		// the stock cap so a dead peer costs O(log) attempts, not O(n).
		retryMax = DefaultConfig().RetryMax
	}
	if retryMax < backoff {
		retryMax = backoff
	}
	var lastErr error
	for {
		err := f.attempt(node, reqKind, body, parse)
		if err == nil {
			return nil
		}
		var refused *RemoteError
		if errors.As(err, &refused) || errors.Is(err, ErrFetcherClosed) {
			return err
		}
		lastErr = err
		wait := f.jitter(backoff)
		if backoff *= 2; backoff > retryMax {
			backoff = retryMax
		}
		if time.Now().Add(wait).After(deadline) {
			return fmt.Errorf("transport: %s unreachable within retry deadline: %w", node, lastErr)
		}
		time.Sleep(wait)
	}
}

// attempt performs one request/response exchange under CallTimeout.
func (f *RemoteFetcher) attempt(node types.NodeID, reqKind byte,
	body func(w *wire.Writer), parse func(r *wire.Reader) error) error {
	rc, err := f.rconnFor(node)
	if err != nil {
		return err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	conn := rc.get()
	if conn == nil {
		f.c.mu.Lock()
		addr, ok := f.c.addrs[node]
		f.c.mu.Unlock()
		if !ok {
			return &RemoteError{Node: node, Msg: "unknown peer"}
		}
		conn, err = f.c.cfg.Fault.Dial(f.id, node, addr, f.c.cfg.DialTimeout)
		if err != nil {
			return err
		}
		// Publish under f.mu so the dial cannot slip past a concurrent
		// Close: Close sets closed before snapshotting the rconns, so
		// either we observe closed here and tear the fresh conn down
		// ourselves, or Close observes the conn and closes it.
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return ErrFetcherClosed
		}
		rc.connMu.Lock()
		rc.conn = conn
		rc.connMu.Unlock()
		f.mu.Unlock()
	}
	err = Exchange(conn, f.CallTimeout, f.c.cfg.MaxFrame, f.id, reqKind, f.nextReqID(), body, parse)
	var refused *RemoteError
	switch {
	case errors.As(err, &refused):
		refused.Node = node
	case err != nil:
		rc.closeConn()
	}
	return err
}

// Retrieve implements core.Fetcher.
func (f *RemoteFetcher) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	resp := new(core.RetrieveResponse)
	err := f.call(node, frameRetrieveReq,
		func(w *wire.Writer) { req.MarshalWire(w) },
		func(r *wire.Reader) error {
			r.Value(resp)
			return r.Finish()
		})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// LatestAuth implements core.Fetcher.
func (f *RemoteFetcher) LatestAuth(node types.NodeID) (seclog.Authenticator, error) {
	var auth seclog.Authenticator
	err := f.call(node, frameAuthReq, nil,
		func(r *wire.Reader) error {
			r.Value(&auth)
			return r.Finish()
		})
	return auth, err
}

// AuthsAbout implements core.Fetcher. Unreachable observers contribute no
// evidence (the Fetcher interface carries no error here): the consistency
// check simply sees fewer vouching peers, which can only weaken detection,
// never accuse.
func (f *RemoteFetcher) AuthsAbout(observer, target types.NodeID, t1, t2 types.Time) []seclog.Authenticator {
	var out []seclog.Authenticator
	err := f.call(observer, frameAuthsReq,
		func(w *wire.Writer) {
			w.String(string(target))
			w.Int(int64(t1))
			w.Int(int64(t2))
		},
		func(r *wire.Reader) error {
			n := r.Count() // adversary-controlled; bounded against input size
			if err := r.Err(); err != nil {
				return err
			}
			out = make([]seclog.Authenticator, n)
			for i := range out {
				if err := out[i].UnmarshalWire(r); err != nil {
					return err
				}
			}
			return r.Finish()
		})
	if err != nil {
		return nil
	}
	return out
}

// Nodes implements core.Fetcher: the full registered membership (local and
// remote), sorted. This is the set AuditAll sweeps.
func (f *RemoteFetcher) Nodes() []types.NodeID {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	out := make([]types.NodeID, 0, len(f.c.addrs))
	for id := range f.c.addrs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
