package transport

// The one request/response mechanism in the tree. A Server owns a listener,
// its connections and their drain-on-Close, and dispatches frames to the
// Handlers registered per kind; a Caller owns one connection per target,
// request ids, the per-attempt timeout, jittered retry until a deadline and
// the Close semantics. audit.go puts a Cluster member's kinds on one and the
// typed audit methods on the other; internal/queryfront does the same for
// the query protocol.
//
// An answered request is [len][from][kind][reqID][body]; its answer is
// [len][from][kind+1][reqID][ok] followed by the body (ok) or the refusal's
// text. A one-way frame is [len][from][kind][body].

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// Reply answers one request: with refusal's text in-band, or — refusal nil —
// with the body that body encodes. It may be called from any goroutine (the
// frontend's sessions answer out of order; writes serialise per connection)
// and at most once. An answer that outgrows MaxFrame becomes an in-band
// error, so the caller sees a checked failure instead of a hung read; an
// answer to a connection that has gone, or to a closed Server, is dropped.
type Reply func(refusal error, body func(*wire.Writer))

// Handler is one registered kind, in two halves: decode, then run. The
// handler reads its arguments from r, touching no state and checking no
// error, and returns the function that acts on them; between the two the
// Server checks that the reads succeeded and consumed the whole body, so a
// request is validated as a whole before anything behind the listener is
// called. run gets the Reply of an answered kind, nil for a one-way kind.
type Handler func(from types.NodeID, r *wire.Reader) (run func(Reply))

// ServerStats counts what a Server's read loops saw. Servers may share one
// (a Cluster's members do).
type ServerStats struct {
	Frames       atomic.Uint64 // frames read
	DecodeErrors atomic.Uint64 // malformed frames and broken reads (connection dropped)
	Served       atomic.Uint64 // answers given
}

// Server serves registered frame kinds on one listener. Fill in the fields,
// register with Handle/HandleOneWay, then Listen and Start.
type Server struct {
	// ID names the server in its answers.
	ID types.NodeID
	// MaxFrame bounds frames in both directions.
	MaxFrame int
	// WriteTimeout is the per-frame deadline (default that of
	// DefaultConfig): a client that stalls reading an answer, or sending a
	// frame it has begun, loses its connection. Between frames a connection
	// may idle.
	WriteTimeout time.Duration
	// Stats receives the counts (default: the server's own).
	Stats *ServerStats

	kinds map[byte]registration
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // accept loop + one read loop per connection
}

type registration struct {
	h      Handler
	oneWay bool
}

// Handle registers the handler of an answered kind (answers are kind+1).
func (s *Server) Handle(kind byte, h Handler) { s.register(kind, h, false) }

// HandleOneWay registers the handler of a kind that gets no answer.
func (s *Server) HandleOneWay(kind byte, h Handler) { s.register(kind, h, true) }

func (s *Server) register(kind byte, h Handler, oneWay bool) {
	if s.kinds == nil {
		s.kinds = make(map[byte]registration)
	}
	s.kinds[kind] = registration{h, oneWay}
}

// Listen binds addr ("host:0" picks a port; see Addr). Nothing is accepted
// before Start.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if s.WriteTimeout <= 0 {
		s.WriteTimeout = DefaultConfig().WriteTimeout
	}
	if s.Stats == nil {
		s.Stats = new(ServerStats)
	}
	s.ln, s.conns = ln, make(map[net.Conn]struct{})
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Start begins accepting connections.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.accept()
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

// Close stops accepting, resets every connection and returns once every read
// loop — and so every handler running on one — has returned. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.ln.Close()
		for conn := range s.conns {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// inbound is one decoded frame, ready to run.
type inbound struct {
	kind   byte
	reqID  uint64
	oneWay bool
	run    func(Reply)
}

// decode is everything that happens to a frame before anything is called:
// the common prefix, the kind lookup, an answered kind's request id, the
// kind's own decoder and — whatever that decoder read — the whole-body check.
func (s *Server) decode(payload []byte) (inbound, error) {
	from, kind, r, err := BeginFrame(payload)
	if err != nil {
		return inbound{}, err
	}
	reg, ok := s.kinds[kind]
	if !ok {
		return inbound{}, fmt.Errorf("transport: unknown frame kind %d", kind)
	}
	in := inbound{kind: kind, oneWay: reg.oneWay}
	if !reg.oneWay {
		in.reqID = r.Uint()
	}
	in.run = reg.h(from, r)
	return in, r.Finish()
}

// serve is one connection's read loop. Handlers run on it, so requests on
// one connection are served in order (a handler that wants otherwise hands
// its Reply to another goroutine, as the frontend's admission does). A
// decode error drops the connection; the remote side redials.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var wmu sync.Mutex // serialises answer writes
	for {
		payload, err := s.readFrame(conn)
		if err != nil {
			if err != io.EOF {
				s.Stats.DecodeErrors.Add(1)
			}
			return
		}
		s.Stats.Frames.Add(1)
		in, err := s.decode(payload)
		if err != nil {
			s.Stats.DecodeErrors.Add(1)
			return
		}
		if in.oneWay {
			in.run(nil)
			continue
		}
		in.run(func(refusal error, body func(*wire.Writer)) {
			s.Stats.Served.Add(1)
			buf, err := replyFrame(s.ID, in.kind+1, in.reqID, s.MaxFrame, refusal, body)
			if err == nil {
				wmu.Lock()
				conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
				_, err = conn.Write(buf)
				wmu.Unlock()
			}
			if err != nil {
				conn.Close() // the read loop ends on its next read
			}
		})
	}
}

// readFrame waits for a frame as long as the client likes, and once its first
// byte is in, gives the rest WriteTimeout — the server's one per-frame bound —
// to arrive: a client that stops mid-frame loses its connection (counted as
// a broken read) instead of holding the read loop forever.
func (s *Server) readFrame(conn net.Conn) ([]byte, error) {
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(s.WriteTimeout))
	defer conn.SetReadDeadline(time.Time{})
	return ReadFrame(io.MultiReader(bytes.NewReader(first[:]), conn), s.MaxFrame)
}

// replyFrame builds one answer frame; an answer that outgrows maxFrame (a
// segment or an explanation bigger than the frame bound) is replaced by an
// in-band error.
func replyFrame(from types.NodeID, kind byte, reqID uint64, maxFrame int, refusal error, body func(*wire.Writer)) ([]byte, error) {
	w := newFrame(from, kind)
	w.Uint(reqID)
	if refusal != nil {
		w.Bool(false)
		w.String(refusal.Error())
	} else {
		w.Bool(true)
		body(w)
	}
	buf, err := FinishFrame(w, maxFrame)
	if err != nil && refusal == nil {
		return replyFrame(from, kind, reqID, maxFrame, err, nil)
	}
	return buf, err
}

// exchange performs one request/response conversation with target on conn
// under CallTimeout: it writes the request under a fresh id and reads frames
// until the answer to that id arrives (stale answers to abandoned requests
// are skipped), then hands the body of an ok answer to parse and checks that
// parse consumed it. A *RemoteError means the peer refused in-band (or the
// request outgrew the frame bound and was never sent) and conn is still
// usable; any other error means conn is broken and must be closed. An answer
// sent by anyone but target is such an error: the address reached another
// node (a stale or swapped registration), and taking that node's answer as
// target's would pin what it says on target.
func (c *Caller) exchange(conn net.Conn, target types.NodeID, kind byte, body func(*wire.Writer), parse func(*wire.Reader)) error {
	reqID := c.reqID.Add(1)
	w := newFrame(c.id, kind)
	w.Uint(reqID)
	if body != nil {
		body(w)
	}
	buf, err := FinishFrame(w, c.maxFrame)
	if err != nil {
		return &RemoteError{Msg: err.Error()}
	}
	conn.SetDeadline(time.Now().Add(c.CallTimeout))
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	for {
		payload, err := ReadFrame(conn, c.maxFrame)
		if err != nil {
			return err
		}
		from, got, r, err := BeginFrame(payload)
		if err != nil {
			return err
		}
		if from != target {
			return fmt.Errorf("transport: %s's address answered as %s", target, from)
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
		parse(r)
		return r.Finish()
	}
}

// RemoteError is an application-level failure reported in-band by a
// reachable peer (audit refused, empty log, evidence beyond head, frontend
// overloaded). It is final: the peer answered, so retrying the same request
// cannot change the outcome.
type RemoteError struct {
	Node types.NodeID // the target, filled in by Caller
	Msg  string
}

func (e *RemoteError) Error() string {
	if e.Node == "" {
		return "transport: " + e.Msg
	}
	return fmt.Sprintf("transport: %s: %s", e.Node, e.Msg)
}

// ErrClosed is returned by calls made on (or racing with) a closed Caller.
// It is final: the owner tore the caller down, so retrying cannot succeed.
var ErrClosed = errors.New("transport: caller closed")

// Backoff is the one retry schedule: Base, 2·Base, 4·Base, … capped at Max.
// Base is floored at 2ms — without the floor a zeroed configuration turns a
// retry loop into a hot spin, jitter of 0 being 0 and 2·0 staying 0 — and a
// Max below Base counts as unset: the stock cap (DefaultConfig's RetryMax),
// or Base where that is larger still, never the floor — a dead peer must
// cost O(log) attempts, not O(n).
type Backoff struct {
	Base, Max time.Duration
}

// Next returns the wait that follows prev (0: the first).
func (b Backoff) Next(prev time.Duration) time.Duration {
	base, limit := max(b.Base, 2*time.Millisecond), b.Max
	if limit < base {
		limit = max(DefaultConfig().RetryMax, base)
	}
	if prev <= 0 {
		return base
	}
	return min(2*prev, limit)
}

// Jitter draws the actual wait for a backoff of d, uniform in [d/2, d].
func Jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// Caller is the client half: it keeps one connection per target, dialed
// through the function it was built with, and performs each call as one
// request/response exchange under CallTimeout, retrying transient failures
// with jittered backoff until RetryDeadline. An unreachable or stalling peer
// therefore costs bounded time and surfaces as a checked error. A Caller is
// safe for concurrent use; calls to one target serialize on its connection.
type Caller struct {
	// CallTimeout bounds each write+read attempt.
	CallTimeout time.Duration
	// RetryDeadline bounds the total time spent on one logical call, retries
	// included; zero means a single attempt. In-band refusals are final and
	// are not retried.
	RetryDeadline time.Duration

	id       types.NodeID
	maxFrame int
	backoff  Backoff
	dial     func(target types.NodeID) (net.Conn, error)

	reqID atomic.Uint64

	mu     sync.Mutex
	conns  map[types.NodeID]*rconn
	rng    *rand.Rand
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

// NewCaller builds a caller that names itself id on the wire. seed (mixed
// with id) drives its backoff jitter; dial connects to a target.
func NewCaller(id types.NodeID, maxFrame int, backoff Backoff, seed int64, dial func(target types.NodeID) (net.Conn, error)) *Caller {
	h := fnv.New64a()
	h.Write([]byte(id))
	return &Caller{
		id:       id,
		maxFrame: maxFrame,
		backoff:  backoff,
		dial:     dial,
		conns:    make(map[types.NodeID]*rconn),
		rng:      rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
	}
}

// Close fails in-flight calls and drops the caller's connections. The
// pinned semantics: an in-flight exchange fails with a read/write error
// and is not retried (the retry loop then sees ErrClosed), later calls fail
// fast with ErrClosed, no connection is closed twice, and no connection
// leaks (an attempt whose dial races Close tears its own conn down). Close
// is idempotent and safe against concurrent calls.
func (c *Caller) Close() {
	c.mu.Lock()
	c.closed = true
	conns := make([]*rconn, 0, len(c.conns))
	for _, rc := range c.conns {
		conns = append(conns, rc)
	}
	c.mu.Unlock()
	for _, rc := range conns {
		rc.closeConn()
	}
}

func (c *Caller) rconnFor(target types.NodeID) (*rconn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	rc, ok := c.conns[target]
	if !ok {
		rc = &rconn{}
		c.conns[target] = rc
	}
	return rc, nil
}

// Call performs one logical call of kind against target: body encodes the
// request (nil: empty), parse reads the ok answer's body.
func (c *Caller) Call(target types.NodeID, kind byte, body func(*wire.Writer), parse func(*wire.Reader)) error {
	deadline := time.Now().Add(c.RetryDeadline)
	var backoff time.Duration
	for {
		err := c.attempt(target, kind, body, parse)
		var refused *RemoteError
		if err == nil || c.RetryDeadline <= 0 || errors.As(err, &refused) || errors.Is(err, ErrClosed) {
			return err
		}
		backoff = c.backoff.Next(backoff)
		c.mu.Lock()
		wait := Jitter(c.rng, backoff)
		c.mu.Unlock()
		if time.Now().Add(wait).After(deadline) {
			return fmt.Errorf("transport: %s unreachable within retry deadline: %w", target, err)
		}
		time.Sleep(wait)
	}
}

// Connect dials target now unless a connection is already up, so a bad
// address fails here and not on the first call.
func (c *Caller) Connect(target types.NodeID) error {
	rc, err := c.rconnFor(target)
	if err != nil {
		return err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	_, err = c.connect(rc, target)
	return err
}

// connect returns rc's connection, dialing it if need be. Callers hold rc.mu.
func (c *Caller) connect(rc *rconn, target types.NodeID) (net.Conn, error) {
	rc.connMu.Lock()
	conn := rc.conn
	rc.connMu.Unlock()
	if conn != nil {
		return conn, nil
	}
	conn, err := c.dial(target)
	if err != nil {
		return nil, err
	}
	// Publish under c.mu so the dial cannot slip past a concurrent Close:
	// Close sets closed before snapshotting the rconns, so either we observe
	// closed here and tear the fresh conn down ourselves, or Close observes
	// the conn and closes it.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, ErrClosed
	}
	rc.connMu.Lock()
	rc.conn = conn
	rc.connMu.Unlock()
	return conn, nil
}

// attempt performs one request/response exchange under CallTimeout.
func (c *Caller) attempt(target types.NodeID, kind byte, body func(*wire.Writer), parse func(*wire.Reader)) error {
	rc, err := c.rconnFor(target)
	if err != nil {
		return err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	conn, err := c.connect(rc, target)
	if err != nil {
		return err
	}
	err = c.exchange(conn, target, kind, body, parse)
	var refused *RemoteError
	switch {
	case errors.As(err, &refused):
		refused.Node = target
	case err != nil:
		rc.closeConn()
	}
	return err
}
