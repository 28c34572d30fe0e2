package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cryptoutil"
	"repro/internal/provgraph"
	"repro/internal/seclog"
	"repro/internal/types"
)

// Failure records one provable problem found while auditing a node's log.
// Any failure concerning host(v) makes microquery report red(v) (§5.5).
type Failure struct {
	Node   types.NodeID
	Seq    uint64 // log position, 0 if not entry-specific
	Reason string
}

func (f Failure) String() string {
	return fmt.Sprintf("%s@%d: %s", f.Node, f.Seq, f.Reason)
}

// Auditor verifies retrieved log segments and replays them through the
// graph-construction algorithm, accumulating one provenance graph across
// all audited nodes (the querier's Gν(ε)). It also cross-checks the chain
// positions that peers vouch for against the chains the audited nodes
// present, which is what exposes equivocation (§5.5's consistency check).
//
// Auditing one node is split into two phases so that many nodes can be
// processed concurrently without perturbing any deterministic output:
//
//   - Prepare — verify the segment against its authenticator, re-verify
//     every embedded peer signature and checkpoint digest, and replay the
//     entries through a fresh replica of the node's deterministic machine,
//     recording the machine outputs. The replica lives and dies inside
//     Prepare. Prepare touches only thread-safe state (the directory, the
//     verification cache, atomic Stats counters) and may run on any number
//     of goroutines, one node per goroutine.
//   - Commit — apply the prepared op stream to the shared provenance graph,
//     merge failures and implied chain commitments, and run the
//     equivocation cross-checks. Commits are serial and ordered by the
//     caller, so the graph, the failure list, and every metric are
//     bit-identical to a fully sequential audit of the same nodes in the
//     same order.
//
// An audit the querier runs on its own behalf, with a spare core and no
// audit cache, is streamed instead: Prepare only verifies, and Commit runs
// the replay on a second goroutine and applies its ops as they come, so the
// graph grows while the replica steps. The ops and their order are the
// inline audit's, and so is every deterministic output.
//
// All Commit-side methods (and everything else on Auditor) must be called
// from a single goroutine.
type Auditor struct {
	Builder *provgraph.Builder
	Stats   *cryptoutil.Stats

	cfg     Config
	suite   cryptoutil.Suite
	dir     *Directory
	factory types.MachineFactory

	covered  map[types.NodeID]*AuditedHead
	implied  map[types.NodeID]map[uint64]*impliedCommit
	failures []Failure
	endTimes map[types.NodeID]types.Time
	// recorded is set once a committed audit was played from an audit-cache
	// recording: this auditor's evidence may then rest on outputs read from
	// disk (see Querier.ForgetRecordings).
	recorded bool
	// streamed counts the audits committed through applyStreamed.
	streamed int
}

// AuditedHead is the chain one node presented to an audit, verified against
// an authenticator the node signed: the hashes of log positions from..to. It
// is immutable once Prepare returns, so the auditor's bookkeeping and whoever
// keeps it past the audit share the one flat slice.
type AuditedHead struct {
	node  types.NodeID
	from  uint64
	size  int    // bytes per hash
	chain []byte // h_from ‖ … ‖ h_to
}

// to is the last position of the chain (from-1 for an empty one).
func (h *AuditedHead) to() uint64 { return h.from + uint64(len(h.chain)/h.size) - 1 }

// hashAt returns h_seq, or nil for a position outside the chain.
func (h *AuditedHead) hashAt(seq uint64) []byte {
	if seq < h.from || seq-h.from >= uint64(len(h.chain)/h.size) {
		return nil
	}
	i := int(seq-h.from) * h.size
	return h.chain[i : i+h.size : i+h.size]
}

// Bytes is the memory the chain occupies.
func (h *AuditedHead) Bytes() int { return len(h.chain) }

// Confirms reports whether auth, the node's answer to LatestAuth, is its valid
// signature over exactly the last position of this chain: the log has not
// grown, been rolled back or forked since the audit that replayed the chain,
// and the node stands by all of it.
func (h *AuditedHead) Confirms(dir *Directory, auth seclog.Authenticator) bool {
	head := h.hashAt(auth.Seq)
	if auth.Node != h.node || auth.Seq != h.to() || head == nil || !bytes.Equal(auth.Hash, head) {
		return false
	}
	pub, err := dir.Key(h.node)
	return err == nil && auth.Verify(pub)
}

// CheckAuthenticator is the §5.5 consistency check of one authenticator a peer
// holds: if its signer signed it and h is the signer's chain, the position it
// commits to must carry the same hash there; the failure returned otherwise
// is proof of a fork. h may be nil (the signer's chain is not held).
func (h *AuditedHead) CheckAuthenticator(dir *Directory, stats *cryptoutil.Stats, auth seclog.Authenticator) (Failure, bool) {
	pub, err := dir.Key(auth.Node)
	if err != nil {
		return Failure{}, false // unknown signer; nothing to verify
	}
	stats.CountVerify()
	if !auth.VerifyCounted(stats, pub) {
		return Failure{}, false // not valid evidence
	}
	if h == nil || auth.Node != h.node {
		return Failure{}, false
	}
	if on := h.hashAt(auth.Seq); on != nil && !bytes.Equal(on, auth.Hash) {
		return Failure{Node: auth.Node, Seq: auth.Seq,
			Reason: "authenticator held by a peer is not on the presented chain (fork)"}, true
	}
	return Failure{}, false
}

type sentEnvelope struct {
	msgs     []types.Message
	seq      uint64
	t        types.Time
	prevHash []byte
}

// impliedCommit is a chain position (node, seq) another node vouches for: an
// envelope or ack signature embedded in an audited log. With sig, which
// Prepare has verified, it is an authenticator of node's the auditor holds.
type impliedCommit struct {
	node     types.NodeID
	seq      uint64
	hash     []byte
	t        types.Time
	sig      []byte
	reporter types.NodeID
	msgs     []types.Message // messages explaining the commitment, if any
}

// NewAuditor creates an auditor. factory builds the deterministic state
// machine used for replay; maint, when non-nil, excuses unacked sends whose
// loss was reported (§5.4).
func NewAuditor(cfg Config, dir *Directory, factory types.MachineFactory, maint *Maintainer) *Auditor {
	b := provgraph.NewBuilder(cfg.Tprop)
	if maint != nil {
		b.MissedAckKnown = maint.WasNotified
	}
	return &Auditor{
		Builder:  b,
		Stats:    new(cryptoutil.Stats),
		cfg:      cfg,
		suite:    cfg.suite(),
		dir:      dir,
		factory:  factory,
		covered:  make(map[types.NodeID]*AuditedHead),
		implied:  make(map[types.NodeID]map[uint64]*impliedCommit),
		endTimes: make(map[types.NodeID]types.Time),
	}
}

// Failures returns every problem found so far.
func (a *Auditor) Failures() []Failure { return a.failures }

// NodeFailed reports whether any failure implicates node id.
func (a *Auditor) NodeFailed(id types.NodeID) bool {
	for _, f := range a.failures {
		if f.Node == id {
			return true
		}
	}
	return false
}

// Audited reports whether node id's log has been replayed.
func (a *Auditor) Audited(id types.NodeID) bool {
	_, ok := a.covered[id]
	return ok
}

// AuditedHead returns the chain node id presented, or nil if its log has not
// been replayed.
func (a *Auditor) AuditedHead(id types.NodeID) *AuditedHead { return a.covered[id] }

// AuditedSpan returns the part of node id's log that was replayed: positions
// from..to, whose last entry carries the node's local time through. ok is
// false if the log has not been replayed.
func (a *Auditor) AuditedSpan(id types.NodeID) (from, to uint64, through types.Time, ok bool) {
	h := a.covered[id]
	if h == nil {
		return 0, 0, 0, false
	}
	return h.from, h.to(), a.endTimes[id], true
}

// heldEvidence returns the highest position of node id's chain, committed to
// at or before time through, that an audited log vouches for, as the
// authenticator it is: id's own signature over (t, hash), which Prepare
// verified when it walked the entry carrying it.
func (a *Auditor) heldEvidence(id types.NodeID, through types.Time) (seclog.Authenticator, bool) {
	var best *impliedCommit
	for _, c := range a.implied[id] {
		if c.t <= through && (best == nil || c.seq > best.seq) {
			best = c
		}
	}
	if best == nil {
		return seclog.Authenticator{}, false
	}
	return seclog.Authenticator{Node: id, Seq: best.seq, T: best.t, Hash: best.hash, Sig: best.sig}, true
}

// ---------------------------------------------------------------------------
// Prepared audits: the op stream recorded by the parallel phase.

// opKind discriminates replayOps.
type opKind uint8

const (
	opFail        opKind = iota // record a failure
	opEvent                     // apply a GCA event with precomputed outputs
	opSeedExist                 // seed an exist vertex from a checkpoint item
	opSeedBelieve               // seed a believe vertex from a checkpoint item
	opImplied                   // record an implied chain commitment for a peer
)

// replayOp is one deferred commit-side action, recorded by Prepare in
// exactly the order the sequential auditor would have performed it. A log
// entry yields two or three of them and a prepared audit holds them all
// until its commit, so only the event — nearly every op — is stored inline;
// the other kinds carry a pointer.
type replayOp struct {
	kind opKind

	ev   types.Event    // opEvent
	outs []types.Output // opEvent: replica machine outputs

	commit *impliedCommit // opImplied
	seed   *seedOp        // opSeedExist, opSeedBelieve
	fail   *Failure       // opFail
}

// seedOp is a checkpoint item to seed as an exist vertex on node, or as a
// believe vertex on node about origin.
type seedOp struct {
	node   types.NodeID
	origin types.NodeID // opSeedBelieve
	tup    types.Tuple
	t      types.Time
}

// wireBytes is what one retrieve downloaded, in Figure 8's categories.
type wireBytes struct{ log, ckpt, auth int64 }

func downloaded(resp *RetrieveResponse) wireBytes {
	var b wireBytes
	if resp.Segment != nil {
		for _, e := range resp.Segment.Entries {
			if e.Type == seclog.ECkpt {
				b.ckpt += int64(e.WireSize())
			} else {
				b.log += int64(e.WireSize())
			}
		}
	}
	if resp.NewAuth != nil {
		b.auth = int64(resp.NewAuth.WireSize())
	}
	return b
}

// PreparedAudit is the result of the thread-safe phase of one node's audit:
// everything cryptographic and machine-deterministic is done; what remains
// is the serial merge into the shared graph.
type PreparedAudit struct {
	Node types.NodeID

	wire     wireBytes // summed here so the decoded response need not outlive Prepare
	err      error
	ops      []replayOp
	audited  *AuditedHead
	endTime  types.Time
	recorded bool // played from an audit-cache recording
	// stream is the verified segment of an audit whose replay Commit runs,
	// streaming its ops into the graph; ops then holds only what verification
	// recorded.
	stream *seclog.SegmentData
}

// Err returns the verification error Prepare recorded, if any (the same
// error Commit will return).
func (p *PreparedAudit) Err() error { return p.err }

// prep is one Prepare call at work: the audit it is filling in and the
// machine it steps. Its methods record ops; they mutate no shared state.
type prep struct {
	*PreparedAudit
	a *Auditor
	// machine is the node's replica, or a recording of one that replayed
	// these very entries before (see auditcache.go). Either way it is local
	// to Prepare: the commit phase sees its outputs and nothing else.
	machine types.Machine
	// sent is the envelope of every snd entry walked so far, by its first
	// message: what an ack entry's signature is re-verified against.
	sent map[types.MessageID]*sentEnvelope
	// stepped counts the machine's steps; a walk that is to be recorded
	// (cum non-nil) notes the count after each entry.
	stepped int
	cum     []int
	// emit, when set, takes the ops recorded so far every streamChunk ops
	// and at the end of the walk (more false); while more is true it returns
	// the empty chunk the walk records into next.
	emit func(ops []replayOp, more bool) []replayOp
}

// streamChunk is how many ops a streamed walk hands its commit at a time, and
// streamDepth how many chunks may await the commit before the walk blocks:
// enough that a burst of costly entries on either side does not stall the
// other, few enough that the ops held between the two stay a few thousand,
// as the scope's window bounds what its workers hold.
const (
	streamChunk = 512
	streamDepth = 4
)

func (p *prep) fail(seq uint64, format string, args ...any) {
	p.ops = append(p.ops, replayOp{kind: opFail,
		fail: &Failure{Node: p.Node, Seq: seq, Reason: fmt.Sprintf(format, args...)}})
}

// handleEvent steps the machine for machine-bound events and records the
// event with its outputs for the commit phase.
func (p *prep) handleEvent(ev types.Event) {
	var outs []types.Output
	if provgraph.StepsMachine(ev) {
		outs = p.machine.Step(ev)
		p.stepped++
	}
	p.ops = append(p.ops, replayOp{kind: opEvent, ev: ev, outs: outs})
}

// Prepare runs the parallel phase of auditing one node: it verifies the
// retrieved segment against the evidence and replays it through a replica
// machine, recording every commit-side action. Prepare does not read or
// write any Auditor state that Commit mutates, so distinct nodes may be
// prepared concurrently (and concurrently with commits of other nodes).
func (a *Auditor) Prepare(node types.NodeID, resp *RetrieveResponse, evidence seclog.Authenticator) *PreparedAudit {
	return a.prepare(node, resp, evidence, false)
}

// prepare is Prepare, or with stream only its verification: the replay of a
// segment that verifies is then left to Commit, which streams it into the
// graph. A streamed audit reads no audit-cache recording.
func (a *Auditor) prepare(node types.NodeID, resp *RetrieveResponse, evidence seclog.Authenticator, stream bool) *PreparedAudit {
	p := a.verify(node, resp, evidence)
	switch {
	case p.err != nil:
	case stream:
		p.stream = resp.Segment
	default:
		p.replay(resp.Segment)
	}
	return p.PreparedAudit
}

// verify is the first half of Prepare: it checks resp against the evidence
// and fills in the audited chain, or records why it cannot and sets err.
func (a *Auditor) verify(node types.NodeID, resp *RetrieveResponse, evidence seclog.Authenticator) *prep {
	p := &prep{a: a, PreparedAudit: &PreparedAudit{Node: node, wire: downloaded(resp)}}
	seg := resp.Segment
	if seg == nil {
		p.fail(0, "returned a response without a segment")
		p.err = fmt.Errorf("core: retrieve response without a segment")
		return p
	}
	if seg.Node != node {
		p.fail(0, "returned a segment for %s", seg.Node)
		p.err = fmt.Errorf("core: segment node mismatch")
		return p
	}
	pub, err := a.dir.Key(node)
	if err != nil {
		p.err = err
		return p
	}
	// Pick the freshest valid commitment to verify against: the new
	// authenticator if it checks out, otherwise the evidence we held.
	auth := evidence
	if resp.NewAuth != nil && resp.NewAuth.Node == node && resp.NewAuth.Seq >= auth.Seq {
		a.Stats.CountVerify()
		if resp.NewAuth.VerifyCounted(a.Stats, pub) {
			auth = *resp.NewAuth
		} else {
			p.fail(resp.NewAuth.Seq, "returned an invalid fresh authenticator")
		}
	}
	hashes, err := seg.VerifyAgainst(a.suite, a.Stats, pub, auth)
	if err != nil {
		p.fail(auth.Seq, "log does not match authenticator: %v", err)
		p.err = err
		return p
	}
	// Evidence older than the fresh authenticator must also lie on this
	// chain (otherwise the node forked its log).
	if evidence.Node == node && evidence.Seq != auth.Seq &&
		evidence.Seq >= seg.From && evidence.Seq <= seg.To() {
		if !bytes.Equal(hashes[evidence.Seq-seg.From], evidence.Hash) {
			p.fail(evidence.Seq, "evidence authenticator is not on the returned chain (fork)")
		}
	}

	size := a.suite.HashSize()
	p.audited = &AuditedHead{node: node, from: seg.From, size: size, chain: make([]byte, 0, len(hashes)*size)}
	for _, h := range hashes {
		p.audited.chain = append(p.audited.chain, h...)
	}
	return p
}

// replay is the second half of Prepare: the walk of the verified segment,
// through a recording of it when the audit cache has one.
func (p *prep) replay(seg *seclog.SegmentData) {
	a, node, n := p.a, p.Node, len(seg.Entries)
	// Failures recorded before this point mean the response is already
	// suspect — audit it without the cache.
	cache := a.cfg.AuditCache
	if cache == nil || n == 0 || len(p.ops) != 0 {
		p.replayEntries(seg, a.factory(node))
		return
	}
	// The same entries (same node and start, same chain hash at the last of
	// them) step their machine to the same outputs, so a recording of a walk
	// that began with them stands in for the replica. The walk is the same one
	// and derives everything else afresh; a recording that does not fit it
	// exactly, or a walk that finds a failure, proves the entry is not a clean
	// replay of these bytes.
	key := cache.key(node, seg.From)
	if rec := cache.recording(key, n, p.audited.hashAt(seg.To())); rec != nil {
		p.replayEntries(seg, rec)
		if rec.spent() && cleanOps(p.ops) {
			cache.hits.Add(1)
			p.recorded = true
			return
		}
		p.ops = nil // not a hit: forget what that walk recorded
	}
	cache.misses.Add(1)
	p.cum = make([]int, 0, n)
	p.replayEntries(seg, a.factory(node))
	if cleanOps(p.ops) {
		cache.put(key, record(p).encode())
	}
}

// cleanOps reports whether an op stream records no failures; only clean
// replays are cached (see auditcache.go).
func cleanOps(ops []replayOp) bool {
	for i := range ops {
		if ops[i].kind == opFail {
			return false
		}
	}
	return true
}

// Commit applies a prepared audit to the shared graph and bookkeeping. It
// must be called from the auditor's single commit goroutine; the caller
// chooses the commit order, and the result is identical to having prepared
// and committed the nodes one at a time in that order.
func (a *Auditor) Commit(p *PreparedAudit) error {
	if _, ok := a.covered[p.Node]; ok {
		return nil // already replayed (one segment per node per query session)
	}
	if p.err != nil {
		a.applyOps(p.ops)
		return p.err
	}
	a.covered[p.Node] = p.audited
	a.recorded = a.recorded || p.recorded
	if p.stream != nil {
		a.applyStreamed(p)
	} else {
		a.applyOps(p.ops)
	}
	if p.endTime > a.endTimes[p.Node] {
		a.endTimes[p.Node] = p.endTime
	}
	a.crossCheck(p.Node, p.audited)
	return nil
}

// applyStreamed is the commit of a streamed audit: the walk of pa's verified
// segment runs on a goroutine of its own, as Prepare's would, and hands over
// its ops a chunk at a time, which are applied as they come. The graph grows
// while the walk runs, in the order an inline commit applies the same ops;
// the walk blocks while streamDepth chunks await their turn, and an applied
// chunk is cleared and handed back for the walk to record into again.
func (a *Auditor) applyStreamed(pa *PreparedAudit) {
	seg := pa.stream
	pa.stream = nil
	chunks := make(chan []replayOp, streamDepth)
	// The walk allocates a chunk only when none is free, so at most
	// streamDepth+2 ever exist (one recording, streamDepth queued, one
	// applied) and handing one back never blocks.
	free := make(chan []replayOp, streamDepth+2)
	p := &prep{a: a, PreparedAudit: pa, emit: func(ops []replayOp, more bool) []replayOp {
		chunks <- ops
		if !more {
			return nil
		}
		select {
		case ops = <-free:
			return ops
		default:
			return make([]replayOp, 0, streamChunk+streamChunk/4)
		}
	}}
	go func() {
		defer close(chunks)
		p.replayEntries(seg, a.factory(pa.Node))
	}()
	for ops := range chunks {
		a.applyOps(ops)
		clear(ops)
		free <- ops[:0]
	}
	a.streamed++
}

func (a *Auditor) applyOps(ops []replayOp) {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opFail:
			a.failures = append(a.failures, *op.fail)
		case opEvent:
			a.Builder.ApplyReplayed(op.ev, op.outs)
		case opSeedExist:
			a.Builder.SeedExist(op.seed.node, op.seed.tup, op.seed.t)
		case opSeedBelieve:
			a.Builder.SeedBelieve(op.seed.node, op.seed.origin, op.seed.tup, op.seed.t)
		case opImplied:
			a.recordImplied(op.commit)
		}
	}
}

// cleanOpCount is the number of ops replayEntries records for a segment it
// finds no failure in, so that the op stream is allocated once.
func cleanOpCount(seg *seclog.SegmentData) int {
	n := 0
	for i, e := range seg.Entries {
		switch e.Type {
		case seclog.EIns, seclog.EDel:
			n++
		case seclog.ESnd:
			n += len(e.Msgs)
		case seclog.ERcv:
			n += 2*len(e.Msgs) + 1
		case seclog.EAck:
			n += len(e.AckIDs) + 1
		case seclog.ECkpt:
			if i == 0 && e.Ckpt != nil {
				for _, it := range e.Ckpt.Items {
					n += len(it.Believed)
					if it.Local {
						n++
					}
				}
			}
		}
	}
	return n
}

// replayEntries walks the verified segment through m: it expands entries
// into GCA events, re-verifying embedded peer signatures and checkpoints
// along the way, and steps m with every machine-bound one.
func (p *prep) replayEntries(seg *seclog.SegmentData, m types.Machine) {
	node := p.Node
	p.machine = m
	p.sent, p.endTime, p.stepped = make(map[types.MessageID]*sentEnvelope), 0, 0
	if p.emit != nil {
		p.ops = slices.Grow(p.ops, streamChunk+streamChunk/4)
	} else {
		p.ops = slices.Grow(p.ops, cleanOpCount(seg))
	}
	for i, e := range seg.Entries {
		seq := seg.From + uint64(i)
		if e.T > p.endTime {
			p.endTime = e.T
		}
		switch e.Type {
		case seclog.EIns:
			p.handleEvent(types.Event{Kind: types.EvIns, Node: node, Time: e.T,
				Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody, Replaces: e.Replaces})
		case seclog.EDel:
			p.handleEvent(types.Event{Kind: types.EvDel, Node: node, Time: e.T,
				Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody})
		case seclog.ESnd:
			if len(e.Msgs) == 0 {
				p.fail(seq, "empty snd entry")
				break
			}
			prev := seg.BaseHash
			if seq > seg.From {
				prev = p.audited.hashAt(seq - 1)
			}
			p.sent[e.Msgs[0].ID()] = &sentEnvelope{msgs: e.Msgs, seq: seq, t: e.T, prevHash: prev}
			for j := range e.Msgs {
				msg := &e.Msgs[j]
				if msg.Src != node {
					p.fail(seq, "snd entry with foreign source %s", msg.Src)
				}
				p.handleEvent(types.Event{Kind: types.EvSnd, Node: node, Time: e.T, Msg: msg})
			}
		case seclog.ERcv:
			p.replayRcv(seq, e)
		case seclog.EAck:
			p.replayAck(seq, e)
		case seclog.ECkpt:
			p.replayCkpt(seq, e, i == 0)
		}
		if p.cum != nil {
			p.cum = append(p.cum, p.stepped)
		}
		if p.emit != nil && len(p.ops) >= streamChunk {
			p.ops = p.emit(p.ops, true)
		}
	}
	if p.emit != nil {
		if len(p.ops) != 0 {
			p.emit(p.ops, false)
		}
		p.ops = nil
	}
}

func (p *prep) replayRcv(seq uint64, e *seclog.Entry) {
	a, node := p.a, p.Node
	if len(e.Msgs) == 0 {
		p.fail(seq, "empty rcv entry")
		return
	}
	src := e.Msgs[0].Src
	// Re-verify the sender's envelope commitment (§5.4 conditions). The
	// implied chain position is also recorded for the equivocation check.
	sndEntry := &seclog.Entry{T: e.PeerTime, Type: seclog.ESnd, Msgs: e.Msgs}
	hx := seclog.ChainHash(a.suite, a.Stats, e.PeerPrevHash, sndEntry)
	implied := false
	if pub, err := a.dir.Key(src); err != nil {
		p.fail(seq, "rcv from unknown node %s", src)
	} else if !seclog.VerifyCommitment(a.Stats, pub, e.PeerTime, hx, e.PeerSig) {
		p.fail(seq, "rcv entry carries an invalid signature from %s", src)
	} else {
		implied = true
	}
	for j := range e.Msgs {
		msg := &e.Msgs[j]
		if msg.Dst != node {
			p.fail(seq, "rcv entry with foreign destination %s", msg.Dst)
			continue
		}
		id := msg.ID()
		p.handleEvent(types.Event{Kind: types.EvRcv, Node: node, Time: e.T,
			Msg: msg, SameBatch: j > 0})
		// The rcv entry commits the receiver to acknowledging: synthesize
		// the ack transmission (acks are implicit in the log, §5.4).
		p.handleEvent(types.Event{Kind: types.EvSnd, Node: node, Time: e.T,
			AckID: &id, AckTime: e.T})
	}
	// The implied commitment is recorded after this entry's own events: if
	// the position proves an equivocation, handle-extra-msg must see the
	// receives this very entry legitimately logged (they are evidence
	// *against the sender*, and flagging them red would accuse the honest
	// receiver — Theorem 5 forbids that).
	if implied {
		p.ops = append(p.ops, replayOp{kind: opImplied,
			commit: &impliedCommit{node: src, seq: e.PeerSeq, hash: hx, t: e.PeerTime, sig: e.PeerSig, reporter: node, msgs: e.Msgs}})
	}
}

func (p *prep) replayAck(seq uint64, e *seclog.Entry) {
	a, node := p.a, p.Node
	if len(e.AckIDs) == 0 {
		p.fail(seq, "empty ack entry")
		return
	}
	pend := p.sent[e.AckIDs[0]]
	dst := e.AckIDs[0].Dst
	if pend == nil {
		p.fail(seq, "ack entry without a matching snd entry")
		return
	}
	// Reconstruct the receiver's rcv entry and re-verify its signature.
	rcvEntry := &seclog.Entry{T: e.PeerTime, Type: seclog.ERcv, Msgs: pend.msgs,
		PeerPrevHash: pend.prevHash, PeerTime: pend.t, PeerSig: e.EnvSig, PeerSeq: pend.seq}
	hy := seclog.ChainHash(a.suite, a.Stats, e.PeerPrevHash, rcvEntry)
	implied := false
	if pub, err := a.dir.Key(dst); err != nil {
		p.fail(seq, "ack from unknown node %s", dst)
	} else if !seclog.VerifyCommitment(a.Stats, pub, e.PeerTime, hy, e.PeerSig) {
		p.fail(seq, "ack entry carries an invalid signature from %s", dst)
	} else {
		implied = true
	}
	for i := range e.AckIDs {
		id := e.AckIDs[i]
		p.handleEvent(types.Event{Kind: types.EvRcv, Node: node, Time: e.T,
			AckID: &id, AckTime: e.PeerTime})
	}
	// Recorded after the ack events for the same reason as in replayRcv:
	// the receive vertices the ack proves must exist before a conflict on
	// this position reaches handle-extra-msg.
	if implied {
		p.ops = append(p.ops, replayOp{kind: opImplied,
			commit: &impliedCommit{node: dst, seq: e.PeerSeq, hash: hy, t: e.PeerTime, sig: e.PeerSig, reporter: node, msgs: pend.msgs}})
	}
}

func (p *prep) replayCkpt(seq uint64, e *seclog.Entry, atSegmentStart bool) {
	a, node := p.a, p.Node
	ck := e.Ckpt
	if ck == nil {
		p.fail(seq, "checkpoint entry without payload")
		return
	}
	if err := ck.VerifyFull(a.suite, a.Stats); err != nil {
		p.fail(seq, "checkpoint payload does not match digests: %v", err)
		return
	}
	if atSegmentStart {
		// Start of replay: restore the machine and seed the graph with the
		// extant tuples (their causes live in an earlier segment).
		if err := p.machine.Restore(ck.MachineState); err != nil {
			p.fail(seq, "checkpoint state does not restore: %v", err)
			return
		}
		for _, it := range ck.Items {
			if it.Local {
				p.ops = append(p.ops, replayOp{kind: opSeedExist,
					seed: &seedOp{node: node, tup: it.Tuple, t: it.Appeared}})
			}
			for _, b := range it.Believed {
				p.ops = append(p.ops, replayOp{kind: opSeedBelieve,
					seed: &seedOp{node: node, origin: b.Origin, tup: it.Tuple, t: b.Since}})
			}
		}
		return
	}
	// Mid-segment checkpoint: the replayed machine must agree with it,
	// otherwise the node checkpointed state it never reached ("if a faulty
	// node adds a nonexistent tuple to its checkpoint, this will be
	// discovered when ... replay will begin before the checkpoint and end
	// after it", §5.6). A recording has no state to compare; the check
	// passed when it was made (the same bytes replay to the same state), so
	// it is safely skipped.
	if _, recorded := p.machine.(*recording); recorded {
		return
	}
	snap := p.machine.Snapshot()
	a.Stats.CountHash(len(snap))
	if !bytes.Equal(a.suite.Hash(snap), ck.StateHash) {
		p.fail(seq, "checkpoint disagrees with replayed state")
	}
}

func (a *Auditor) recordImplied(c *impliedCommit) {
	node, seq := c.node, c.seq
	m := a.implied[node]
	if m == nil {
		m = make(map[uint64]*impliedCommit)
		a.implied[node] = m
	}
	if old, ok := m[seq]; ok {
		// Two peers vouch for the same position: they must agree, or the
		// node equivocated.
		if !bytes.Equal(old.hash, c.hash) {
			a.equivocation(node, seq, old, c)
		}
		return
	}
	m[seq] = c
	// If the node is already audited, check against its presented chain.
	if audited, ok := a.covered[node]; ok {
		if h := audited.hashAt(seq); h != nil && !bytes.Equal(h, c.hash) {
			a.equivocation(node, seq, c, c)
		}
	}
}

// crossCheck compares a freshly audited chain with every implied commitment
// collected so far.
func (a *Auditor) crossCheck(node types.NodeID, audited *AuditedHead) {
	keys := make([]uint64, 0, len(a.implied[node]))
	for seq := range a.implied[node] {
		keys = append(keys, seq)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, seq := range keys {
		c := a.implied[node][seq]
		if h := audited.hashAt(seq); h != nil && !bytes.Equal(h, c.hash) {
			a.equivocation(node, seq, c, c)
		}
	}
}

func (a *Auditor) equivocation(node types.NodeID, seq uint64, c1, c2 *impliedCommit) {
	a.failures = append(a.failures, Failure{Node: node, Seq: seq,
		Reason: fmt.Sprintf("equivocation: conflicting commitments for log position %d", seq)})
	// Surface the conflicting transmission as red send/receive vertices
	// (handle-extra-msg, Figure 11).
	for _, c := range []*impliedCommit{c1, c2} {
		for i := range c.msgs {
			a.Builder.HandleExtraMsg(&c.msgs[i])
		}
	}
}

// CheckAuthenticator cross-checks an externally collected authenticator
// (from the consistency check of §5.5) against an audited node's chain.
func (a *Auditor) CheckAuthenticator(auth seclog.Authenticator) {
	if f, forked := a.covered[auth.Node].CheckAuthenticator(a.dir, a.Stats, auth); forked {
		a.failures = append(a.failures, f)
	}
}

// Finalize flags suppressed sends, missing acks, and unacknowledged
// receives at the end of the audited prefixes (quiescence check).
func (a *Auditor) Finalize() {
	a.Builder.Finalize(a.endTimes)
}

// Graph returns the reconstructed provenance graph Gν(ε).
func (a *Auditor) Graph() *provgraph.Graph { return a.Builder.G }
