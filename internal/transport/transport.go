// Package transport runs SNooPy nodes over real TCP sockets (stdlib net),
// complementing the deterministic simulator: the same core.Node, the same
// commitment protocol, but wall-clock time and genuine concurrency. It is
// the deployment path for the library outside experiments, and it is built
// to survive a real network: per-link outbound queues with drop-and-count
// backpressure (a dead peer never stalls sends to healthy peers), dial/
// read/write deadlines, bounded exponential backoff with jitter on
// reconnect, and connection reuse that survives peer restarts.
//
// Framing is trivial: a 4-byte big-endian length (bounded by MaxFrame),
// then the sender's node ID, a 1-byte frame kind, and the wire-encoded
// body. Data frames carry envelopes and acks; audit frames (audit.go) carry
// the retrieve protocol so queriers can audit live nodes remotely. Each
// node listens on its own address; a Cluster serializes delivery into each
// node (core.Node is single-threaded by contract).
// Listening and calling are one core (rpc.go): a member is a Server with
// two one-way data kinds and six audit kinds, RemoteFetcher a Caller with
// typed audit methods, and the query frontend and its client
// (internal/queryfront) are a Server and a Caller too.
//
// A seeded FaultPlan (faultplan.go) can be installed on a Cluster to
// inject drops, delays, reorders, resets, one-way partitions, and
// slow-reader stalls per link — the live-network counterpart of
// internal/adversary's composable behaviors.
package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wire"
)

// WallClock is a core.Clock over time.Now.
type WallClock struct{}

// Now implements core.Clock.
func (WallClock) Now() types.Time { return types.Time(time.Now().UnixNano()) }

// DefaultMaxFrame bounds the 4-byte frame length a peer can make the
// decoder allocate for: a malicious or corrupt length prefix must not be
// able to OOM the daemon.
const DefaultMaxFrame = 16 << 20

// Config carries the transport's failure-handling parameters. The zero
// value of any field selects the default.
type Config struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// WriteTimeout is the per-frame write deadline, on links and on the
	// members' servers (default 2s); a peer that stalls reading trips it,
	// and the sender resets and reconnects. The servers also bound a frame's
	// read by it, from its first byte (Server.WriteTimeout).
	WriteTimeout time.Duration
	// RetryBase/RetryMax bound the exponential reconnect and retry backoff
	// (defaults 20ms and 1s; Backoff has the rules). The actual wait is
	// jittered in [backoff/2, backoff] from a per-link RNG seeded by Seed.
	RetryBase time.Duration
	// RetryMax caps the backoff growth.
	RetryMax time.Duration
	// QueueLen is the per-link outbound queue bound (default 256). A full
	// queue drops the newest frame and counts it — Send never blocks, so a
	// slow link cannot back-pressure the single-threaded node loop.
	QueueLen int
	// MaxFrame bounds inbound (and outbound) frame sizes (default 16 MiB).
	MaxFrame int
	// Seed derives the per-link backoff-jitter RNG streams (and is the
	// natural place to thread a scenario seed through to FaultPlan).
	Seed int64
	// Fault, when non-nil, injects network faults on outbound links.
	Fault *FaultPlan
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		DialTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		RetryBase:    20 * time.Millisecond,
		RetryMax:     time.Second,
		QueueLen:     256,
		MaxFrame:     DefaultMaxFrame,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.DialTimeout <= 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	if c.RetryBase <= 0 {
		c.RetryBase = d.RetryBase
	}
	if c.QueueLen <= 0 {
		c.QueueLen = d.QueueLen
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = d.MaxFrame
	}
	return c
}

func (c Config) backoff() Backoff { return Backoff{Base: c.RetryBase, Max: c.RetryMax} }

// Stats is a snapshot of the cluster's failure counters.
type Stats struct {
	FramesSent     uint64 // frames handed to the OS (possibly fault-dropped)
	QueueFullDrops uint64 // Send backpressure: outbound queue full
	DownDrops      uint64 // link down (dialing failed or in backoff)
	ClosedDrops    uint64 // sends after Close
	WriteErrors    uint64 // write failures (deadline, reset, injected)
	Dials          uint64
	DialErrors     uint64
	Reconnects     uint64 // successful dials after a previous connection
	FramesReceived uint64
	DecodeErrors   uint64 // malformed inbound frames (connection dropped)
	RPCServed      uint64
}

// Dropped sums every frame the transport gave up on.
func (s Stats) Dropped() uint64 {
	return s.QueueFullDrops + s.DownDrops + s.ClosedDrops + s.WriteErrors
}

// Cluster manages a set of local nodes reachable over TCP. It implements
// core.Sender (outbound) and dispatches inbound packets into the owning
// node under a per-node lock. NewFetcher builds the core.Fetcher that
// audits nodes over the wire.
type Cluster struct {
	cfg Config

	mu     sync.Mutex
	addrs  map[types.NodeID]string
	nodes  map[types.NodeID]*member
	peers  map[linkKey]*peer
	maint  *core.Maintainer                       // served by the notes RPC
	probes map[types.NodeID]func(*core.Node) bool // health convergence probes
	closed bool
	quit   chan struct{}
	wg     sync.WaitGroup // peer workers

	framesSent     atomic.Uint64
	queueFullDrops atomic.Uint64
	downDrops      atomic.Uint64
	closedDrops    atomic.Uint64
	writeErrors    atomic.Uint64
	dials          atomic.Uint64
	dialErrors     atomic.Uint64
	reconnects     atomic.Uint64
	inbound        ServerStats // shared by every member's server
}

// member is one locally served node: the server its peers and auditors
// reach it on, the lock serializing calls into the node, and the epoch that
// names this serving of it to AuthsSince cursors (random, so a node served
// again never honours a cursor into its previous authenticator lists).
type member struct {
	mu    sync.Mutex
	node  *core.Node
	srv   *Server
	epoch uint64 // under mu
}

// peer is one directional link's outbound state: a bounded queue drained
// by a single worker goroutine that owns the connection and the backoff
// schedule. Faults and backoff jitter are per-link, which is what lets a
// seeded FaultPlan give reproducible per-link decision sequences.
type peer struct {
	from, to types.NodeID
	q        chan *core.Packet

	// Worker-owned; no locking needed.
	conn      net.Conn
	backoff   time.Duration
	nextDial  time.Time
	connected bool // ever connected (distinguishes reconnects)
	rng       *rand.Rand
}

// NewCluster returns an empty cluster with default configuration.
func NewCluster() *Cluster { return NewClusterWith(Config{}) }

// NewClusterWith returns an empty cluster with the given configuration.
func NewClusterWith(cfg Config) *Cluster {
	return &Cluster{
		cfg:    cfg.withDefaults(),
		addrs:  make(map[types.NodeID]string),
		nodes:  make(map[types.NodeID]*member),
		peers:  make(map[linkKey]*peer),
		probes: make(map[types.NodeID]func(*core.Node) bool),
		quit:   make(chan struct{}),
	}
}

// AddPeer registers the address of a node (possibly in another process).
func (c *Cluster) AddPeer(id types.NodeID, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addrs[id] = addr
}

// Serve starts accepting packets for a local node on addr ("host:0" picks a
// free port). It returns the bound address. Serving an ID that was stopped
// with StopNode re-registers it (the restart path); peers reconnect to the
// new address transparently because links resolve the address at dial time.
// Each serving draws a fresh random epoch for AuthsSince cursors.
func (c *Cluster) Serve(node *core.Node, addr string) (string, error) {
	var epoch [8]byte
	_, _ = crand.Read(epoch[:]) // never fails: since Go 1.24 a failing source crashes the program
	m := &member{node: node, epoch: binary.BigEndian.Uint64(epoch[:]), srv: &Server{
		ID: node.ID, MaxFrame: c.cfg.MaxFrame, WriteTimeout: c.cfg.WriteTimeout, Stats: &c.inbound,
	}}
	c.register(m.srv, m)
	if err := m.srv.Listen(addr); err != nil {
		return "", err
	}
	var err error
	c.mu.Lock()
	if _, dup := c.nodes[node.ID]; c.closed {
		err = errors.New("transport: cluster closed")
	} else if dup {
		err = fmt.Errorf("transport: node %s already served (StopNode first)", node.ID)
	} else {
		c.addrs[node.ID] = m.srv.Addr()
		c.nodes[node.ID] = m
	}
	c.mu.Unlock()
	if err != nil {
		m.srv.Close()
		return "", err
	}
	m.srv.Start()
	return m.srv.Addr(), nil
}

// StopNode tears one served node down — listener closed, inbound
// connections reset, in-flight handlers drained — without touching the
// rest of the cluster. It models a node crash (or a clean shutdown before
// a restart): peers' envelopes to the node start failing and back off
// until Serve registers a replacement. The node's log is NOT closed;
// callers crash-testing the seclog store close or abandon it themselves.
func (c *Cluster) StopNode(id types.NodeID) error {
	c.mu.Lock()
	m, ok := c.nodes[id]
	if ok {
		delete(c.nodes, id)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("transport: no local node %s", id)
	}
	m.srv.Close()
	return nil
}

// Send implements core.Sender. It never blocks and never performs network
// I/O on the caller's goroutine: the frame is enqueued on the (from, to)
// link's bounded queue and the link worker dials, writes, and reconnects.
// When the queue is full the frame is dropped and counted — backpressure
// surfaces in Stats, and the commitment protocol's retransmit and
// missing-ack machinery owns recovery.
func (c *Cluster) Send(from, to types.NodeID, pkt *core.Packet) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.closedDrops.Add(1)
		return
	}
	key := linkKey{from, to}
	p := c.peers[key]
	if p == nil {
		h := fnv.New64a()
		h.Write([]byte(from))
		h.Write([]byte{0xff})
		h.Write([]byte(to))
		p = &peer{
			from: from, to: to,
			q:   make(chan *core.Packet, c.cfg.QueueLen),
			rng: rand.New(rand.NewSource(c.cfg.Seed ^ int64(h.Sum64()))),
		}
		c.peers[key] = p
		c.wg.Add(1)
		go c.linkWorker(p)
	}
	c.mu.Unlock()
	select {
	case p.q <- pkt:
	default:
		c.queueFullDrops.Add(1)
	}
}

func (c *Cluster) linkWorker(p *peer) {
	defer c.wg.Done()
	defer func() {
		if p.conn != nil {
			p.conn.Close()
		}
	}()
	for {
		select {
		case <-c.quit:
			return
		case pkt := <-p.q:
			c.deliver(p, pkt)
		}
	}
}

// deliver writes one frame on the link, establishing or re-establishing
// the connection as needed. Failures drop the frame (counted): blocking
// here would stall every later frame on the link behind a peer that may
// be gone for good.
func (c *Cluster) deliver(p *peer, pkt *core.Packet) {
	buf, err := encodePacketFrame(p.from, pkt, c.cfg.MaxFrame)
	if err != nil {
		c.writeErrors.Add(1)
		return
	}
	if p.conn == nil && !c.connect(p) {
		c.downDrops.Add(1)
		return
	}
	if c.writeFrame(p.conn, buf) == nil {
		c.framesSent.Add(1)
		return
	}
	// The connection died under us — the usual sign of a peer restart.
	// Reconnect immediately and retry the frame once; only then give up.
	c.writeErrors.Add(1)
	p.conn.Close()
	p.conn = nil
	if !c.connect(p) {
		c.downDrops.Add(1)
		return
	}
	if c.writeFrame(p.conn, buf) == nil {
		c.framesSent.Add(1)
		return
	}
	c.writeErrors.Add(1)
	p.conn.Close()
	p.conn = nil
	p.failDial(c.cfg)
}

func (c *Cluster) writeFrame(conn net.Conn, buf []byte) error {
	conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	_, err := conn.Write(buf)
	return err
}

// connect dials the link's current address, honoring the backoff schedule:
// while a previous failure's backoff window is open the call fails fast
// (the frame is dropped) instead of sleeping, so the queue keeps draining.
func (c *Cluster) connect(p *peer) bool {
	if !p.nextDial.IsZero() && time.Now().Before(p.nextDial) {
		return false
	}
	c.mu.Lock()
	addr, ok := c.addrs[p.to]
	c.mu.Unlock()
	if !ok {
		p.failDial(c.cfg)
		return false
	}
	c.dials.Add(1)
	conn, err := c.cfg.Fault.Dial(p.from, p.to, addr, c.cfg.DialTimeout)
	if err != nil {
		c.dialErrors.Add(1)
		p.failDial(c.cfg)
		return false
	}
	if p.connected {
		c.reconnects.Add(1)
	}
	p.connected = true
	p.conn = conn
	p.backoff = 0
	p.nextDial = time.Time{}
	return true
}

// failDial advances the link's exponential backoff and schedules the next
// dial attempt with jitter in [backoff/2, backoff].
func (p *peer) failDial(cfg Config) {
	p.backoff = cfg.backoff().Next(p.backoff)
	p.nextDial = time.Now().Add(Jitter(p.rng, p.backoff))
}

// With runs fn with exclusive access to a local node (drivers use it to
// insert tuples safely alongside inbound traffic).
func (c *Cluster) With(id types.NodeID, fn func(*core.Node)) error {
	c.mu.Lock()
	m, ok := c.nodes[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("transport: no local node %s", id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fn(m.node)
	return nil
}

// Stats snapshots the cluster's failure counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		FramesSent:     c.framesSent.Load(),
		QueueFullDrops: c.queueFullDrops.Load(),
		DownDrops:      c.downDrops.Load(),
		ClosedDrops:    c.closedDrops.Load(),
		WriteErrors:    c.writeErrors.Load(),
		Dials:          c.dials.Load(),
		DialErrors:     c.dialErrors.Load(),
		Reconnects:     c.reconnects.Load(),
		FramesReceived: c.inbound.Frames.Load(),
		DecodeErrors:   c.inbound.DecodeErrors.Load(),
		RPCServed:      c.inbound.Served.Load(),
	}
}

// Close shuts down listeners, link workers, and connections, then drains
// every in-flight handler. It is idempotent and safe to call concurrently
// with Send (late sends are dropped and counted).
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	members := make([]*member, 0, len(c.nodes))
	for _, m := range c.nodes {
		members = append(members, m)
	}
	c.mu.Unlock()
	close(c.quit)
	for _, m := range members {
		m.srv.Close() // accept loop and inbound handlers
	}
	c.wg.Wait() // link workers (close their outbound conns on exit)
}

// ---------------------------------------------------------------------------
// Framing.

// frame kinds: data frames reuse core's packet kinds; audit frames live in
// a disjoint range (audit.go).
const (
	frameEnvelope = byte(core.PktEnvelope)
	frameAck      = byte(core.PktAck)
)

// encodePacketFrame builds one length-prefixed data frame. The whole frame
// is assembled into a single buffer so one Write transmits it — which is
// also what lets FaultPlan treat writes as frames.
func encodePacketFrame(from types.NodeID, pkt *core.Packet, maxFrame int) ([]byte, error) {
	w := newFrame(from, byte(pkt.Kind))
	switch pkt.Kind {
	case core.PktEnvelope:
		pkt.Envelope.MarshalWire(w)
	case core.PktAck:
		pkt.Ack.MarshalWire(w)
	default:
		return nil, fmt.Errorf("transport: cannot frame packet kind %d", pkt.Kind)
	}
	return FinishFrame(w, maxFrame)
}

// A frame is a 4-byte big-endian length prefix (bounded by MaxFrame), the
// sender's node ID string, a one-byte kind, then the kind-specific body.
// ReadFrame/BeginFrame/FinishFrame are the three steps every reader and
// writer of frames (rpc.go, and tests that speak raw frames) goes through.

// newFrame starts a frame: room for the length prefix, the sender, the kind.
func newFrame(from types.NodeID, kind byte) *wire.Writer {
	w := wire.NewWriter(256)
	w.Raw([]byte{0, 0, 0, 0})
	w.String(string(from))
	w.Byte(kind)
	return w
}

// FinishFrame patches the length prefix a caller reserved with
// w.Raw([]byte{0,0,0,0}) and enforces the frame bound on the outbound path
// too (a local bug must not emit frames peers reject).
func FinishFrame(w *wire.Writer, maxFrame int) ([]byte, error) {
	buf := w.Bytes()
	n := len(buf) - 4
	if maxFrame > 0 && n > maxFrame {
		return nil, fmt.Errorf("transport: frame too large (%d > %d bytes)", n, maxFrame)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	return buf, nil
}

// ReadFrame reads one length-prefixed frame payload. The length is
// adversary-controlled input: anything beyond maxFrame is rejected with a
// checked error before any allocation, never a panic or an OOM.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if n > uint32(maxFrame) {
		return nil, fmt.Errorf("transport: oversized frame (%d > %d bytes)", n, maxFrame)
	}
	if n == 0 {
		return nil, errors.New("transport: empty frame")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// BeginFrame parses a frame payload's common prefix (sender, kind) and
// returns the reader positioned at the kind-specific body.
func BeginFrame(payload []byte) (types.NodeID, byte, *wire.Reader, error) {
	r := wire.NewReader(payload)
	from := types.NodeID(r.String())
	kind := r.Byte()
	if err := r.Err(); err != nil {
		return "", 0, nil, err
	}
	return from, kind, r, nil
}

// decodePacket decodes a data frame's body into a core.Packet (the decode
// half of the two one-way kinds; the server checks r afterwards).
func decodePacket(kind byte, r *wire.Reader) *core.Packet {
	pkt := &core.Packet{Kind: core.PacketKind(kind)}
	if kind == frameEnvelope {
		pkt.Envelope = new(core.Envelope)
		r.Value(pkt.Envelope)
	} else {
		pkt.Ack = new(core.Ack)
		r.Value(pkt.Ack)
	}
	return pkt
}
