// Package simnet is a deterministic discrete-event network simulator: the
// testbed substrate for the paper's evaluation (§7.1). Nodes run under
// virtual, per-node-skewed clocks; message delays are seeded-pseudorandom
// and bounded by Tprop; every transmitted byte is metered and attributed to
// the categories Figure 5 reports (baseline payload, provenance metadata,
// authenticators, acknowledgments).
//
// # Scheduling model
//
// Every node owns an event shard: a private queue of deliveries ordered by
// (time, source, per-source sequence), its schedule (workload.Queue), a
// private random stream per outgoing link, and a private traffic meter.
// Cross-node interaction happens only through Send, whose delivery delay is
// at least Cfg.MinDelay; the scheduler exploits that bound conservatively.
// Run advances virtual time in windows [T, T+MinDelay): within a window
// every shard executes its own events independently (optionally on
// parallel workers — Config.Workers), because nothing a shard does before
// T+MinDelay can affect another shard before T+MinDelay. Deliveries
// produced during a window are staged in per-destination mailboxes and
// merged into the target shards at the window barrier, ordered by the same
// (time, source, sequence) key.
//
// Every event has a node: a delivery belongs to its destination, and a
// timeline action (Deploy), tick (Run) or injected input (AtNode) is armed
// in the schedule of the node it names; it runs on that node's shard and
// touches only that node. There is no event that stops the whole network,
// so a window is bounded by MinDelay and the Run horizon alone.
//
// Deploy builds its nodes concurrently (a recovering node replays its log
// then) and registers them in node order once all are built: what a node
// sends while it is built goes nowhere. It keys and resumes each node by the
// rules a live deployment uses (workload.Workload.Key, ArmNode).
//
// # Verify-ahead
//
// Run also owns a pool of GOMAXPROCS workers, whatever Workers says. The
// peer signature a node checks on each envelope and ack it receives depends
// only on bytes fixed at send time, so Send reserves that check in the
// process-wide verification cache (seclog.ReserveCommitment over
// core.Packet.Commitment) and the pool runs it while the packet waits in the
// heap. The pool touches only that cache: no node, shard, clock, meter or
// log. The node still recomputes the hash and verifies, finding the answer
// cached or in flight, so a lying hint costs a wasted check, never a
// different answer. Run joins the pool before returning; between Runs Send
// reserves nothing.
//
// # Determinism contract
//
// A run is a pure function of the configuration (including Seed) and the
// scheduled workload: random delay and skew draws come from per-link and
// per-node streams derived from Seed (never from a shared generator whose
// consumption order depends on scheduling), every queue is ordered by the
// total key (time, source, sequence), and shard meters are merged in node
// order. Consequently the number of workers does not influence any
// observable: a Workers=8 run is bit-identical — Traffic, LogStats,
// CryptoStats, log contents, query answers — to the Workers=1 reference
// execution, which the equivalence tests pin.
package simnet

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workload"
)

// event is one delivery of pkt on its destination's shard. src is its
// sender and seq the sender's counter, so (at, src, seq) is a total order
// that both the serial reference and the sharded scheduler sort by.
type event struct {
	at  types.Time
	src types.NodeID
	seq uint64
	pkt *core.Packet
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.src != o.src {
		return e.src < o.src
	}
	return e.seq < o.seq
}

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Traffic meters transmitted bytes by category.
type Traffic struct {
	BaselineBytes   int64 // bare messages (what a provenance-free system sends)
	ProvenanceBytes int64 // per-message provenance metadata (timestamps, seqnos)
	AuthBytes       int64 // envelope commitment overhead (hash + signature)
	AckBytes        int64 // acknowledgments
	Envelopes       int64
	Messages        int64
	Acks            int64
	PerNodeBytes    map[types.NodeID]int64 // all bytes sent by each node
	PerNodeBaseline map[types.NodeID]int64
}

// TotalBytes returns all metered bytes.
func (t *Traffic) TotalBytes() int64 {
	return t.BaselineBytes + t.ProvenanceBytes + t.AuthBytes + t.AckBytes
}

// add accumulates another meter into t. Sums are order-independent, so the
// merged view is identical no matter how shard execution interleaved.
func (t *Traffic) add(o *Traffic) {
	t.BaselineBytes += o.BaselineBytes
	t.ProvenanceBytes += o.ProvenanceBytes
	t.AuthBytes += o.AuthBytes
	t.AckBytes += o.AckBytes
	t.Envelopes += o.Envelopes
	t.Messages += o.Messages
	t.Acks += o.Acks
	for id, b := range o.PerNodeBytes {
		t.PerNodeBytes[id] += b
	}
	for id, b := range o.PerNodeBaseline {
		t.PerNodeBaseline[id] += b
	}
}

// meter attributes one packet sent by from.
func (t *Traffic) meter(from types.NodeID, pkt *core.Packet) {
	switch pkt.Kind {
	case core.PktEnvelope:
		env := pkt.Envelope
		var base int64
		for i := range env.Msgs {
			base += int64(baselineSize(&env.Msgs[i]))
		}
		full := int64(pkt.WireSize())
		payload := int64(env.PayloadSize())
		t.BaselineBytes += base
		t.ProvenanceBytes += payload - base
		t.AuthBytes += full - payload
		t.Envelopes++
		t.Messages += int64(len(env.Msgs))
		if t.PerNodeBytes == nil {
			t.PerNodeBytes = make(map[types.NodeID]int64)
			t.PerNodeBaseline = make(map[types.NodeID]int64)
		}
		t.PerNodeBytes[from] += full
		t.PerNodeBaseline[from] += base
	case core.PktAck:
		sz := int64(pkt.WireSize())
		t.AckBytes += sz
		t.Acks++
		if t.PerNodeBytes == nil {
			t.PerNodeBytes = make(map[types.NodeID]int64)
			t.PerNodeBaseline = make(map[types.NodeID]int64)
		}
		t.PerNodeBytes[from] += sz
	}
}

// baselineSize is the wire size of a message without SNP's provenance
// metadata (send timestamp and sequence number).
func baselineSize(m *types.Message) int {
	w := wire.GetWriter()
	w.String(string(m.Src))
	w.String(string(m.Dst))
	w.Byte(byte(m.Pol))
	m.Tuple.MarshalWire(w)
	n := w.Len()
	wire.PutWriter(w)
	return n
}

// Config extends the SNooPy node config with simulator knobs.
type Config struct {
	Core core.Config
	// MinDelay/MaxDelay bound message propagation (MaxDelay must stay
	// below Core.Tprop for the quiescence assumptions to hold). MinDelay is
	// also the conservative lookahead of the sharded scheduler: larger
	// values mean wider windows and more parallelism.
	MinDelay types.Time
	MaxDelay types.Time
	// TickEvery drives node timers (batching, checkpoints, retransmits).
	TickEvery types.Time
	// Seed makes the run reproducible.
	Seed int64
	// Workers bounds how many shards Run may execute concurrently within a
	// window. 0 or 1 is the serial reference scheduler; values > 1 enable
	// the parallel scheduler; negative uses GOMAXPROCS. Every observable is
	// bit-identical across worker counts (see the package comment).
	Workers int
	// OnNode, when set, is invoked with every node Deploy creates — after
	// registration, before any event executes. It is the one way to arm a
	// node: the adversary-injection framework (internal/adversary, Plan.Hook)
	// and the scenario programs install Byzantine behaviors through it, so
	// nothing mutates a deployed node from outside its own event stream.
	OnNode func(*core.Node)
}

// DefaultConfig returns simulator defaults consistent with §5.2's
// assumptions.
func DefaultConfig() Config {
	return Config{
		Core:      core.DefaultConfig(),
		MinDelay:  5 * types.Millisecond,
		MaxDelay:  50 * types.Millisecond,
		TickEvery: 100 * types.Millisecond,
		Seed:      1,
	}
}

// staged is one cross-shard delivery produced during a window, exchanged at
// the next barrier.
type staged struct {
	dst *shard
	ev  *event
}

// shard is one node's slice of the simulation: its delivery queue, its
// schedule, its outgoing random streams, its traffic meter, and its outbox
// of cross-shard deliveries. During a window a shard is touched only by the
// single worker executing it; between windows only the coordinator does.
type shard struct {
	id   types.NodeID
	node *core.Node

	queue    eventHeap
	timeline workload.Queue
	seq      uint64 // per-source counter for the deliveries this node sends

	// now is the timestamp of the event currently (or last) executed on
	// this shard; the node's clock reads max(shard.now, Net.now).
	now types.Time

	// links holds one seeded delay stream per outgoing link (this node →
	// dst), so delay draws depend only on this node's own send order.
	links map[types.NodeID]*rand.Rand

	traffic Traffic
	outbox  []staged
}

// next reports the shard's next event: its time, and whether it is a
// delivery rather than the node's due firings. Those run as one event (at,
// node), after the deliveries due then from lower node IDs and before those
// from higher ones, in the schedule's order. A node never sends to itself,
// so that is the order one event per firing would take.
func (sh *shard) next() (t types.Time, delivery, ok bool) {
	due, armed := sh.timeline.Next()
	if len(sh.queue) > 0 {
		if ev := sh.queue[0]; !armed || ev.at < due || ev.at == due && ev.src < sh.id {
			return ev.at, true, true
		}
	}
	return due, false, armed
}

// Net is the simulated network plus all nodes attached to it.
type Net struct {
	Cfg        Config
	Dir        *core.Directory
	Maintainer *core.Maintainer
	// Traffic is the merged view of all shard meters; it is refreshed at
	// the end of every Run (reading it mid-run sees the previous Run's
	// totals).
	Traffic *Traffic

	shards  map[types.NodeID]*shard
	order   []types.NodeID // sorted; maintained incrementally by Deploy
	byOrder []*shard       // shards in order

	now types.Time // committed global time (window barrier / Run horizon)

	ahead *verifyPool // the running Run's verify-ahead pool; nil between Runs
}

// New creates an empty simulated network.
func New(cfg Config) *Net {
	return &Net{
		Cfg:        cfg,
		Dir:        core.NewDirectory(),
		Maintainer: core.NewMaintainer(),
		Traffic: &Traffic{
			PerNodeBytes:    make(map[types.NodeID]int64),
			PerNodeBaseline: make(map[types.NodeID]int64),
		},
		shards: make(map[types.NodeID]*shard),
	}
}

// Now returns the global virtual time (the current window barrier; within a
// window, individual shards may be ahead by less than MinDelay).
func (n *Net) Now() types.Time { return n.now }

// derivedSeed maps (seed, domain, a, b) to an independent stream seed. The
// derivation is order-free: a stream's identity depends only on what it is
// for, never on when it was first used.
func derivedSeed(seed int64, domain string, a, b types.NodeID) int64 {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(domain))
	h.Write([]byte{0})
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	sum := h.Sum(nil)
	return int64(binary.BigEndian.Uint64(sum[:8]))
}

// linkRng returns the delay stream for the link sh.id → dst, creating it on
// first use from the link's derived seed.
func (n *Net) linkRng(sh *shard, dst types.NodeID) *rand.Rand {
	if r, ok := sh.links[dst]; ok {
		return r
	}
	r := rand.New(rand.NewSource(derivedSeed(n.Cfg.Seed, "link-delay", sh.id, dst)))
	sh.links[dst] = r
	return r
}

// timeAt is the current moment from a shard's perspective: its own event
// time while it executes, the barrier time otherwise.
func (n *Net) timeAt(sh *shard) types.Time {
	if sh.now > n.now {
		return sh.now
	}
	return n.now
}

// Deploy runs a workload on this network: one node per w.Nodes entry, keyed
// by w.Key, with its share of the timeline armed by w.ArmNode in its shard's
// schedule, which fires it by due time, then in arming order, whatever the
// worker count. With Core.LogDir and Core.LogRecover every node reopens its
// store and resumes as a restarted live node does (ArmNode). A workload
// that fails its Check fails the deployment, and so does a node that
// core.NewNode refuses; the error names the node.
//
// Only core.NewNode (for a recovering node, the store's Open and the replay
// of its log) runs concurrently, on at most GOMAXPROCS goroutines; what
// precedes it (prepare) and the registration after it run in w.Nodes order.
// No shard is registered while nodes are built, so what a node sends then
// (the outputs its recovery re-stages) goes nowhere. A failed Deploy returns
// the error of the first failing node in w.Nodes order: the nodes before it
// stay deployed, and the logs of those built after it are closed.
func (n *Net) Deploy(w *workload.Workload) error {
	if err := w.Check(); err != nil {
		return err
	}
	shards, builds, err := n.prepare(w)
	recovered := n.Cfg.Core.LogDir != "" && n.Cfg.Core.LogRecover
	errs := make([]error, len(builds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(builds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(builds)); i = next.Add(1) - 1 {
				shards[i].node, errs[i] = builds[i]()
			}
		}()
	}
	wg.Wait()
	for i, sh := range shards {
		if errs[i] != nil {
			for _, built := range shards[i+1:] {
				if built.node != nil {
					_ = built.node.Log.Close()
				}
			}
			return errs[i]
		}
		n.shards[sh.id] = sh
		at, _ := slices.BinarySearch(n.order, sh.id)
		n.order = slices.Insert(n.order, at, sh.id)
		n.byOrder = slices.Insert(n.byOrder, at, sh)
		if n.Cfg.OnNode != nil {
			n.Cfg.OnNode(sh.node)
		}
		w.ArmNode(sh.node, recovered, func(a workload.Action) { n.arm(sh, a) })
	}
	return err
}

// prepare gives every node of w, up to the first it refuses, a shard and its
// core.NewNode call, with a pooled deterministic key registered in the
// directory. It returns the refusal too. Factories may share driver state,
// so they are called here, in node order.
func (n *Net) prepare(w *workload.Workload) ([]*shard, []func() (*core.Node, error), error) {
	var shards []*shard
	var builds []func() (*core.Node, error)
	for i, id := range w.Nodes {
		if _, dup := n.shards[id]; dup || slices.ContainsFunc(shards, func(sh *shard) bool { return sh.id == id }) {
			return shards, builds, fmt.Errorf("simnet: duplicate node %s", id)
		}
		key, err := w.Key(n.Cfg.Core.Suite, i)
		if err != nil {
			return shards, builds, err
		}
		n.Dir.Register(id, key.Public())
		// Per-node clock skew in [−Δclock/2, +Δclock/2], drawn from the
		// node's own derived stream so it does not depend on registration
		// order.
		skew := types.Time(0)
		if n.Cfg.Core.DeltaClock > 0 {
			rng := rand.New(rand.NewSource(derivedSeed(n.Cfg.Seed, "clock-skew", id, "")))
			skew = types.Time(rng.Int63n(int64(n.Cfg.Core.DeltaClock))) - n.Cfg.Core.DeltaClock/2
		}
		sh := &shard{id: id, links: make(map[types.NodeID]*rand.Rand)}
		clock := core.ClockFunc(func() types.Time { return max(n.timeAt(sh)+skew, 0) })
		machine := w.Factory(id)
		shards = append(shards, sh)
		builds = append(builds, func() (*core.Node, error) {
			node, err := core.NewNode(id, n.Cfg.Core, key, n.Dir, n.Maintainer, clock, n, machine)
			if err != nil {
				return nil, fmt.Errorf("simnet: deploying %s: %w", id, err)
			}
			return node, nil
		})
	}
	return shards, builds, nil
}

// arm queues a in sh's schedule, due no earlier than now.
func (n *Net) arm(sh *shard, a workload.Action) {
	a.At = max(a.At, n.timeAt(sh))
	sh.timeline.Arm(a)
}

// Node returns a node by ID.
func (n *Net) Node(id types.NodeID) *core.Node {
	if sh := n.shards[id]; sh != nil {
		return sh.node
	}
	return nil
}

// Nodes implements core.Fetcher's node listing (sorted). The order slice is
// kept sorted by Deploy, so this is a plain copy.
func (n *Net) Nodes() []types.NodeID {
	return append([]types.NodeID(nil), n.order...)
}

// Send implements core.Sender: meter the packet on the sender's shard and
// stage its delivery in the destination's mailbox. It is called from the
// sending node's own execution, so the sender's shard state is safe to use
// without locks.
func (n *Net) Send(from, to types.NodeID, pkt *core.Packet) {
	src := n.shards[from]
	if src == nil {
		return
	}
	src.traffic.meter(from, pkt)
	delay := n.Cfg.MinDelay
	if n.Cfg.MaxDelay > n.Cfg.MinDelay {
		delay += types.Time(n.linkRng(src, to).Int63n(int64(n.Cfg.MaxDelay - n.Cfg.MinDelay)))
	}
	dst := n.shards[to]
	if dst == nil {
		return
	}
	if n.ahead != nil {
		n.verifyAhead(from, pkt)
	}
	src.seq++
	ev := &event{at: n.timeAt(src) + delay, src: from, seq: src.seq, pkt: pkt}
	src.outbox = append(src.outbox, staged{dst: dst, ev: ev})
}

// verifyAhead reserves the check of pkt's signature that its receiver makes
// at delivery and queues it, blocking while the queue is full.
func (n *Net) verifyAhead(from types.NodeID, pkt *core.Packet) {
	t, hash, sig := pkt.Commitment()
	if hash == nil {
		return
	}
	pub, err := n.Dir.Key(from)
	if err != nil {
		return
	}
	if check := seclog.ReserveCommitment(pub, t, hash, sig); check != nil {
		n.ahead.work <- check
	}
}

// AtNode arms fn as a one-shot at virtual time t (clamped to now) in id's
// schedule: it runs inside id's event stream and may touch only that node.
// AtNode may be called between Runs or from id's own execution — never from
// another node's execution. An id Deploy did not create is an error: there
// is no event without a node.
func (n *Net) AtNode(id types.NodeID, t types.Time, fn func()) error {
	sh := n.shards[id]
	if sh == nil {
		return fmt.Errorf("simnet: AtNode on unknown node %s", id)
	}
	n.arm(sh, workload.Action{At: t, Do: func(*core.Node) { fn() }})
	return nil
}

// workers resolves the configured worker count.
func (n *Net) workers() int {
	w := n.Cfg.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// scheduleTicks arms every node's protocol tick, a periodic action over
// this Run's horizon, in its schedule.
func (n *Net) scheduleTicks(until types.Time) {
	if n.Cfg.TickEvery <= 0 {
		return
	}
	for _, sh := range n.byOrder {
		// Tick errors are local faults (e.g. a signing failure); the node
		// keeps running and audits expose it (Node.Err holds it).
		n.arm(sh, workload.Action{At: n.now + n.Cfg.TickEvery, Every: n.Cfg.TickEvery, Until: until,
			Do: func(node *core.Node) { _ = node.Tick() }})
	}
}

// flushOutboxes merges every staged cross-shard delivery into its target
// queue. Shards are drained in node order; within a shard, the outbox holds
// its execution order. The merge is deterministic either way: (at, src,
// seq) keys are unique, so heap order is independent of insertion order.
func (n *Net) flushOutboxes() {
	for _, sh := range n.byOrder {
		for _, st := range sh.outbox {
			heap.Push(&st.dst.queue, st.ev)
		}
		sh.outbox = sh.outbox[:0]
	}
}

// nextEventTime returns the earliest pending event time across all shards.
func (n *Net) nextEventTime() (types.Time, bool) {
	var best types.Time
	ok := false
	for _, sh := range n.byOrder {
		if t, _, has := sh.next(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// windowPool is a persistent worker pool for one Run: the workers outlive
// the windows, so a barrier costs one channel send per runnable shard
// instead of a goroutine spawn per worker per window.
type windowPool struct {
	work chan *shard
	wg   sync.WaitGroup
	// wEnd is the current window's bound. It is written by the coordinator
	// before any shard of that window is sent and read by workers only
	// while processing those shards; the channel send/receive orders the
	// accesses.
	wEnd types.Time
}

func newWindowPool(workers int) *windowPool {
	p := &windowPool{work: make(chan *shard, workers)}
	for w := 0; w < workers; w++ {
		go func() {
			for sh := range p.work {
				runShard(sh, p.wEnd)
				p.wg.Done()
			}
		}()
	}
	return p
}

// runWindow dispatches one window's runnable shards and waits for the
// barrier.
func (p *windowPool) runWindow(runnable []*shard, wEnd types.Time) {
	p.wEnd = wEnd
	p.wg.Add(len(runnable))
	for _, sh := range runnable {
		p.work <- sh
	}
	p.wg.Wait()
}

func (p *windowPool) stop() { close(p.work) }

// verifyQueue bounds the checks queued ahead of the pool: Send blocks when
// it is full. A longer queue buys no speed — the workers only need to stay
// ahead of the deliveries — and holds every queued packet's material live.
const verifyQueue = 1024

// verifyPool checks in-flight commitments for one Run (see the package
// comment).
type verifyPool struct {
	work chan func()
	wg   sync.WaitGroup
}

func newVerifyPool(workers int) *verifyPool {
	p := &verifyPool{work: make(chan func(), verifyQueue)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for check := range p.work {
				check()
			}
		}()
	}
	return p
}

// stop runs every queued check and waits for the workers to exit.
func (p *verifyPool) stop() {
	close(p.work)
	p.wg.Wait()
}

// runShard executes one shard's events with at < wEnd. Within a window a
// shard touches only its own state (plus lock-protected, order-insensitive
// shared structures such as the maintainer registry and the verification
// cache), so the serial and parallel interleavings are observably
// identical.
func runShard(sh *shard, wEnd types.Time) {
	for {
		t, delivery, ok := sh.next()
		if !ok || t >= wEnd {
			return
		}
		sh.now = t
		if !delivery {
			sh.timeline.Fire(t, sh.node)
			continue
		}
		ev := heap.Pop(&sh.queue).(*event)
		// Delivery errors model dropped packets (bad signatures etc.); the
		// commitment protocol's retransmit/notify path covers them.
		_ = sh.node.HandlePacket(ev.src, ev.pkt)
	}
}

// Run processes events until the queue is empty or virtual time passes
// until. Events stamped beyond the horizon stay queued for a later Run.
func (n *Net) Run(until types.Time) {
	if until < n.now {
		until = n.now
	}
	n.scheduleTicks(until)
	n.ahead = newVerifyPool(runtime.GOMAXPROCS(0))
	defer func() {
		n.ahead.stop()
		n.ahead = nil
	}()
	workers := n.workers()
	var pool *windowPool
	if workers > 1 {
		pool = newWindowPool(workers)
		defer pool.stop()
	}
	// The conservative lookahead: cross-shard effects cannot land sooner
	// than MinDelay after they are produced. A non-positive MinDelay
	// degenerates to single-instant windows, which stays deterministic but
	// forfeits parallelism.
	window := n.Cfg.MinDelay
	if window < 1 {
		window = 1
	}
	runnable := make([]*shard, 0, len(n.byOrder))
	for {
		n.flushOutboxes()
		t, ok := n.nextEventTime()
		if !ok || t > until {
			break
		}
		n.now = t
		wEnd := t + window
		if until+1 < wEnd {
			wEnd = until + 1 // events at exactly `until` still run
		}
		runnable = runnable[:0]
		for _, sh := range n.byOrder {
			if t, _, ok := sh.next(); ok && t < wEnd {
				runnable = append(runnable, sh)
			}
		}
		if pool == nil || len(runnable) <= 1 {
			for _, sh := range runnable {
				runShard(sh, wEnd)
			}
		} else {
			pool.runWindow(runnable, wEnd)
		}
	}
	n.now = until
	n.refreshTraffic()
}

// refreshTraffic rebuilds the merged traffic view from the shard meters (in
// node order; the totals are order-independent sums).
func (n *Net) refreshTraffic() {
	t := n.Traffic
	*t = Traffic{
		PerNodeBytes:    make(map[types.NodeID]int64),
		PerNodeBaseline: make(map[types.NodeID]int64),
	}
	for _, sh := range n.byOrder {
		t.add(&sh.traffic)
	}
}

// ---------------------------------------------------------------------------
// core.Fetcher implementation (the querier's control plane).

// Retrieve implements core.Fetcher.
func (n *Net) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	nd := n.Node(node)
	if nd == nil {
		return nil, fmt.Errorf("simnet: unknown node %s", node)
	}
	return nd.HandleRetrieve(req)
}

// LatestAuth implements core.Fetcher.
func (n *Net) LatestAuth(node types.NodeID) (seclog.Authenticator, error) {
	nd := n.Node(node)
	if nd == nil {
		return seclog.Authenticator{}, fmt.Errorf("simnet: unknown node %s", node)
	}
	return nd.LatestAuth()
}

// AuthsAbout implements core.Fetcher.
func (n *Net) AuthsAbout(observer, target types.NodeID, t1, t2 types.Time) []seclog.Authenticator {
	nd := n.Node(observer)
	if nd == nil {
		return nil
	}
	return nd.AuthsAbout(target, t1, t2)
}

// NewQuerier builds a query session against this network using the given
// machine factory for replay.
func (n *Net) NewQuerier(factory types.MachineFactory) *core.Querier {
	auditor := core.NewAuditor(n.Cfg.Core, n.Dir, factory, n.Maintainer)
	return core.NewQuerier(auditor, n)
}

// QuerierFor builds a query session against this network for a deployed
// workload, with the workload's audit hooks installed.
func (n *Net) QuerierFor(w *workload.Workload) *core.Querier {
	return w.NewQuerier(n.Cfg.Core, n.Dir, n.Maintainer, n)
}

// LogStats aggregates per-node log growth (Figure 6).
type LogStats struct {
	Nodes      int
	GrossBytes int64 // all appended entries
	CkptBytes  int64 // checkpoint entries only
	Entries    uint64
}

// LogStats sums log sizes across nodes. Checkpoint bytes come from the
// logs' checkpoint index, so store-backed logs are not paged in from disk.
func (n *Net) LogStats() LogStats {
	var s LogStats
	for _, sh := range n.byOrder {
		s.Nodes++
		s.GrossBytes += sh.node.Log.GrossBytes()
		s.Entries += sh.node.Log.Len()
		s.CkptBytes += sh.node.Log.CheckpointBytes()
	}
	return s
}

// SyncLogs durably syncs every store-backed log (no-op for in-memory logs).
func (n *Net) SyncLogs() error {
	var err error
	for _, sh := range n.byOrder {
		if err2 := sh.node.Log.Sync(); err == nil {
			err = err2
		}
	}
	return err
}

// CloseLogs syncs and closes every store-backed log. The network must not
// be run afterwards.
func (n *Net) CloseLogs() error {
	var err error
	for _, sh := range n.byOrder {
		if err2 := sh.node.Log.Close(); err == nil {
			err = err2
		}
	}
	return err
}

// CryptoStats sums per-node crypto operation counts (Figure 7).
func (n *Net) CryptoStats() cryptoutil.StatsSnapshot {
	var sum cryptoutil.StatsSnapshot
	for _, sh := range n.byOrder {
		sum = sum.Add(sh.node.Stats.Snapshot())
	}
	return sum
}
