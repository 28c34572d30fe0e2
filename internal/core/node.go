package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// Node is one SNooPy participant: the primary system's state machine plus
// the graph recorder (§5.4). The node logs every input before acting on it,
// runs the commitment protocol for every message exchange, and periodically
// writes checkpoints. It deliberately does *not* maintain the provenance
// graph at runtime (§5.9): the log records just enough to reconstruct the
// node's subgraph on demand.
//
// Nodes are single-threaded: the harness (simulated network or transport
// loop) must serialize calls into a node.
type Node struct {
	ID      types.NodeID
	Machine types.Machine
	Log     *seclog.Log
	Auths   *seclog.AuthSet
	Stats   *cryptoutil.Stats

	cfg        Config
	suite      cryptoutil.Suite
	key        cryptoutil.PrivateKey
	dir        *Directory
	maintainer *Maintainer
	clock      Clock
	net        Sender

	outQ       map[types.NodeID][]types.Message
	queueSince map[types.NodeID]types.Time
	// dstOrder holds the destinations with queued messages, sorted;
	// maintained incrementally because the unbatched path flushes (and
	// previously sorted) after every single event.
	dstOrder []types.NodeID

	outstanding map[types.MessageID]*pendingEnvelope
	// outOrder holds outstanding envelope IDs sorted by (Dst, Seq), the
	// order Tick's retransmit scan needs.
	outOrder   []types.MessageID
	lastEntryT types.Time
	lastCkpt   types.Time

	// rcvSeen caches, per sender, the acks for recently received envelopes.
	// Real networks deliver at-least-once (the commitment protocol
	// retransmits after Tprop, and the retransmission can race the original
	// plus its ack): a duplicate must replay the cached ack, not append a
	// second rcv entry or step the machine twice.
	rcvSeen map[types.NodeID]*rcvCache
	// ackSeen remembers recently completed exchanges so the duplicate acks
	// that at-least-once delivery produces are ignored, not reported as
	// protocol violations.
	ackSeen      map[types.MessageID]struct{}
	ackSeenOrder []types.MessageID

	// Fault-injection hooks; nil on correct nodes (the adversary framework
	// in internal/adversary arms them — honest code paths never fork on
	// them). Tamper rewrites the machine's outputs before they are logged
	// and sent (a compromised primary system: forged sends, or suppressed
	// ones — passive evasion); RefuseAudit makes the node ignore retrieve
	// requests (yields yellow vertices).
	Tamper      func(ev types.Event, outs []types.Output) []types.Output
	RefuseAudit bool

	// TamperPacket intercepts every outgoing packet — envelopes, acks,
	// retransmissions — just before transmission. The returned packets are
	// sent in order: an empty result suppresses the transmission, a
	// modified packet models wire-level forgery (equivocation, signature
	// stripping), and extra packets model replayed traffic. The log entries
	// recording the exchange are already written, exactly like a
	// compromised node whose network stack lies about what it transmitted.
	TamperPacket func(dst types.NodeID, pkt *Packet) []*Packet

	// TamperRetrieve rewrites the node's answers to retrieve requests: a
	// compromised node serving a doctored or truncated log to auditors. It
	// runs after the honest response is assembled; implementations must not
	// mutate the response's shared entries in place (copy before editing).
	TamperRetrieve func(req RetrieveRequest, resp *RetrieveResponse) (*RetrieveResponse, error)

	// failure is the node's first unrecoverable local fault (e.g. a signing
	// failure): the node stops being able to uphold the commitment protocol
	// but must not take the rest of the deployment down with it.
	failure error
}

type pendingEnvelope struct {
	dst      types.NodeID
	env      *Envelope
	prevHash []byte // h_{x−1} (also in env, kept for clarity)
	sent     types.Time
	retried  bool
	notified bool
}

// rcvSeenCap bounds the per-peer duplicate-envelope cache; ackSeenCap bounds
// the completed-exchange set. Both only need to cover the retransmission
// window (one outstanding retry per envelope), so small FIFOs suffice.
const (
	rcvSeenCap = 64
	ackSeenCap = 256
)

// rcvCache is one peer's recently-received-envelope window: for each
// envelope sequence it keeps the sender's signature (to tell a true
// duplicate from a forged reuse of the sequence number) and the ack that
// answered it.
type rcvCache struct {
	acks  map[uint64]rcvSeenAck
	order []uint64
}

type rcvSeenAck struct {
	sig []byte
	ack *Packet
}

func (c *rcvCache) lookup(env *Envelope) (*Packet, bool) {
	got, ok := c.acks[env.Seq]
	if !ok || !bytes.Equal(got.sig, env.Sig) {
		return nil, false
	}
	return got.ack, true
}

func (c *rcvCache) remember(env *Envelope, ack *Packet) {
	if c.acks == nil {
		c.acks = make(map[uint64]rcvSeenAck)
	}
	if len(c.order) >= rcvSeenCap {
		delete(c.acks, c.order[0])
		c.order = c.order[1:]
	}
	c.acks[env.Seq] = rcvSeenAck{sig: env.Sig, ack: ack}
	c.order = append(c.order, env.Seq)
}

// NewNode assembles a node. net may be nil for single-node tests (sends are
// then dropped). A machine that reports a broken protocol definition (Err,
// as dlog.Machine does) is refused before any store is created. When
// cfg.LogDir is set the node's log is backed by an on-disk segment store,
// which can fail to initialize.
func NewNode(id types.NodeID, cfg Config, key cryptoutil.PrivateKey, dir *Directory,
	maint *Maintainer, clock Clock, net Sender, machine types.Machine) (*Node, error) {
	if m, ok := machine.(interface{ Err() error }); ok && m.Err() != nil {
		return nil, fmt.Errorf("core: %s runs a broken program: %w", id, m.Err())
	}
	stats := new(cryptoutil.Stats)
	var lg *seclog.Log
	switch {
	case cfg.LogDir != "" && cfg.LogRecover:
		var err error
		lg, err = seclog.Open(cfg.LogDir, id, cfg.suite(), key, stats, cfg.LogHotTail)
		if err != nil {
			return nil, err
		}
	case cfg.LogDir != "":
		var err error
		lg, err = seclog.NewStored(cfg.LogDir, id, cfg.suite(), key, stats, cfg.LogHotTail)
		if err != nil {
			return nil, err
		}
	default:
		lg = seclog.New(id, cfg.suite(), key, stats)
	}
	n := &Node{
		ID:          id,
		Machine:     machine,
		Log:         lg,
		Auths:       seclog.NewAuthSet(),
		Stats:       stats,
		cfg:         cfg,
		suite:       cfg.suite(),
		key:         key,
		dir:         dir,
		maintainer:  maint,
		clock:       clock,
		net:         net,
		outQ:        make(map[types.NodeID][]types.Message),
		queueSince:  make(map[types.NodeID]types.Time),
		outstanding: make(map[types.MessageID]*pendingEnvelope),
	}
	if cfg.LogRecover {
		// recoverFromLog reports the missing acks before this flush: the
		// report must see only the pre-crash snd entries, not the ones the
		// re-staged outputs are about to append (those get acked through the
		// normal protocol).
		err := n.recoverFromLog()
		if err == nil {
			err = n.flushAll()
		}
		if err != nil {
			_ = lg.Close() // a refused node leaves no open store behind
			return nil, err
		}
	}
	return n, nil
}

// recoverFromLog restores, in one pass over the recovered log (Log.Walk),
// what a crash destroys: the machine's state, the outputs the crash kept out
// of the log, and the pending-ack table. The same pass serves a simulated
// redeploy and a live daemon's restart.
//
// The machine: the recovered log holds every input the machine ever
// consumed, in order, so stepping a fresh machine through them reproduces
// the exact pre-crash state — believed tuples, derivations, and the
// per-destination message sequence counters. The counters matter as much
// as the tuples: message IDs embed them, and a restarted node that reissued
// old IDs would collide with its own pre-crash exchanges, breaking ack
// matching for every peer and auditor.
//
// Step outputs are not discarded: the replay diffs them against the log's
// snd entries, and any derived message with no matching snd entry is
// re-staged for transmission. A crash can land between logging an input
// and appending the snd entry for its derived output, and the logged input
// is a commitment — the auditor's replay derives the same output and
// treats a history that never sends it as suppression, which is provable
// evidence. Re-staging (with the replayed machine's own deterministic
// message IDs) makes the recovered node fulfill the commitment instead.
//
// The pending-ack table: the recovered log may hold snd entries whose acks
// never arrived, and the restarted node can neither retransmit them (the
// pending envelopes are gone) nor know whether the acks were in flight when
// it died. The §5.4 remedy is conservative: report every such exchange to
// the maintainer immediately, so the auditor treats it as a known missing
// ack — an unattributable lead — instead of provable evidence against this
// (honest) node.
func (n *Node) recoverFromLog() error {
	var derived []types.Message
	var sent [][]types.MessageID // one per snd entry, in log order
	logged := make(map[types.MessageID]bool)
	acked := make(map[types.MessageID]bool)
	step := func(ev types.Event) {
		for _, o := range n.Machine.Step(ev) {
			if o.Kind == types.OutSend {
				derived = append(derived, *o.Msg)
			}
		}
	}
	if err := n.Log.Walk(func(_ uint64, e *seclog.Entry) {
		// A recovered log already has timestamped history: new entries must
		// not go backwards, or retrieve's monotonic-timestamp searches break.
		n.lastEntryT = e.T
		switch e.Type {
		case seclog.EIns:
			step(types.Event{Kind: types.EvIns, Node: n.ID, Time: e.T,
				Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody, Replaces: e.Replaces})
		case seclog.EDel:
			step(types.Event{Kind: types.EvDel, Node: n.ID, Time: e.T,
				Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody})
		case seclog.ERcv:
			for j := range e.Msgs {
				msg := e.Msgs[j]
				step(types.Event{Kind: types.EvRcv, Node: n.ID, Time: e.T,
					Msg: &msg, SameBatch: j > 0})
			}
		case seclog.ESnd:
			ids := make([]types.MessageID, len(e.Msgs))
			for i := range e.Msgs {
				ids[i] = e.Msgs[i].ID()
				logged[ids[i]] = true
			}
			sent = append(sent, ids)
		case seclog.EAck:
			if len(e.AckIDs) > 0 {
				acked[e.AckIDs[0]] = true
			}
		}
	}); err != nil {
		return fmt.Errorf("core: recovery replay of %s: %w", n.ID, err)
	}
	// Re-stage the outputs the crash kept out of the log.
	for _, m := range derived {
		if !logged[m.ID()] {
			n.enqueue(m, m.SendTime)
		}
	}
	if n.maintainer == nil {
		return nil
	}
	for _, ids := range sent {
		if len(ids) == 0 || acked[ids[0]] {
			continue
		}
		for _, id := range ids {
			n.maintainer.NotifyMissingAck(n.ID, id)
		}
	}
	return nil
}

// fault records the node's first unrecoverable local fault and returns it.
func (n *Node) fault(err error) error {
	if n.failure == nil {
		n.failure = err
	}
	return err
}

// Err returns the node's first unrecoverable local fault: a signing failure
// or a sticky log-store write error. A faulty node keeps running (and will
// be exposed as faulty by audits), but callers can use Err to surface the
// condition instead of crashing the deployment.
func (n *Node) Err() error {
	if n.failure != nil {
		return n.failure
	}
	return n.Log.Err()
}

// Suite exposes the node's crypto suite (behavior injection needs it to
// forge chain hashes the way the node itself would compute them).
func (n *Node) Suite() cryptoutil.Suite { return n.suite }

// send transmits one packet, diverting through the TamperPacket hook on
// compromised nodes.
func (n *Node) send(dst types.NodeID, pkt *Packet) {
	if n.net == nil {
		return
	}
	// Write-ahead: envelopes and acks carry signatures over the current log
	// head, so the entries they commit to must reach the OS before the
	// packet does. Otherwise a process crash could lose log entries that
	// peers already hold authenticators for, and the recovered (honest)
	// node's shorter chain would read as provable tampering under the §5.5
	// consistency check. Flush is a buffer write, not an fsync: it makes the
	// entries survive the process, which is the failure unit here.
	if err := n.Log.Flush(); err != nil {
		_ = n.fault(fmt.Errorf("core: write-ahead flush on %s: %w", n.ID, err))
		return
	}
	if n.TamperPacket == nil {
		n.net.Send(n.ID, dst, pkt)
		return
	}
	for _, p := range n.TamperPacket(dst, pkt) {
		if p != nil {
			n.net.Send(n.ID, dst, p)
		}
	}
}

// now returns the node's clock, forced monotonic so log entry timestamps
// never decrease.
func (n *Node) now() types.Time {
	t := n.clock.Now()
	if t < n.lastEntryT {
		t = n.lastEntryT
	}
	n.lastEntryT = t
	return t
}

// ---------------------------------------------------------------------------
// Primary-system inputs.

// InsertBase inserts a base tuple (logged as ins, then fed to the machine).
// The returned error reports a local fault (e.g. a signing failure while
// flushing resulting sends); the tuple itself is always logged.
func (n *Node) InsertBase(tup types.Tuple) error {
	t := n.now()
	n.Log.Append(&seclog.Entry{T: t, Type: seclog.EIns, Tuple: tup})
	return n.step(types.Event{Kind: types.EvIns, Node: n.ID, Time: t, Tuple: tup})
}

// DeleteBase removes a base tuple.
func (n *Node) DeleteBase(tup types.Tuple) error {
	t := n.now()
	n.Log.Append(&seclog.Entry{T: t, Type: seclog.EDel, Tuple: tup})
	return n.step(types.Event{Kind: types.EvDel, Node: n.ID, Time: t, Tuple: tup})
}

// InsertEvent injects a transient event tuple (e.g. a timer tick): an ins
// immediately followed by a del, so the provenance graph records the
// appearance and disappearance together. The del is re-stamped with now():
// stepping the ins may flush envelopes whose snd entries carry a later
// timestamp, and log timestamps must stay monotone (retrieve relies on it).
// Under the simulator the clock is frozen within a callback, so both
// entries still share one instant.
func (n *Node) InsertEvent(tup types.Tuple) error {
	t := n.now()
	n.Log.Append(&seclog.Entry{T: t, Type: seclog.EIns, Tuple: tup})
	err := n.step(types.Event{Kind: types.EvIns, Node: n.ID, Time: t, Tuple: tup})
	t = n.now()
	n.Log.Append(&seclog.Entry{T: t, Type: seclog.EDel, Tuple: tup})
	if err2 := n.step(types.Event{Kind: types.EvDel, Node: n.ID, Time: t, Tuple: tup}); err == nil {
		err = err2
	}
	return err
}

// InsertMaybe fires a 'maybe' rule (§3.4): the node chooses to derive head
// from body. replaces optionally names tuples whose simultaneous removal
// causally precedes the insertion (§3.4 constraints); they are deleted
// first, attributed to the same rule.
func (n *Node) InsertMaybe(rule string, head types.Tuple, body []types.Tuple, replaces []types.Tuple) error {
	// Each entry is stamped with a fresh now(): stepping a deletion may
	// flush envelopes with later timestamps, and the log must stay
	// monotone. The simulator's frozen per-callback clock keeps the whole
	// firing at one instant there.
	t := n.now()
	var err error
	for _, old := range replaces {
		n.Log.Append(&seclog.Entry{T: t, Type: seclog.EDel, Tuple: old,
			MaybeRule: rule, MaybeBody: body})
		if err2 := n.step(types.Event{Kind: types.EvDel, Node: n.ID, Time: t, Tuple: old,
			MaybeRule: rule, MaybeBody: body}); err == nil {
			err = err2
		}
		t = n.now()
	}
	n.Log.Append(&seclog.Entry{T: t, Type: seclog.EIns, Tuple: head,
		MaybeRule: rule, MaybeBody: body, Replaces: replaces})
	if err2 := n.step(types.Event{Kind: types.EvIns, Node: n.ID, Time: t, Tuple: head,
		MaybeRule: rule, MaybeBody: body, Replaces: replaces}); err == nil {
		err = err2
	}
	return err
}

// DeleteMaybe withdraws a maybe-derived tuple, attributing the deletion to
// rule with the given body.
func (n *Node) DeleteMaybe(rule string, head types.Tuple, body []types.Tuple) error {
	t := n.now()
	n.Log.Append(&seclog.Entry{T: t, Type: seclog.EDel, Tuple: head,
		MaybeRule: rule, MaybeBody: body})
	return n.step(types.Event{Kind: types.EvDel, Node: n.ID, Time: t, Tuple: head,
		MaybeRule: rule, MaybeBody: body})
}

// step feeds one event to the machine and processes its outputs.
func (n *Node) step(ev types.Event) error {
	outs := n.Machine.Step(ev)
	if n.Tamper != nil {
		outs = n.Tamper(ev, outs)
	}
	for _, o := range outs {
		if o.Kind == types.OutSend { // derivations are reconstructed at query time
			n.enqueue(*o.Msg, ev.Time)
		}
	}
	if n.cfg.Tbatch == 0 {
		return n.flushAll()
	}
	return nil
}

// enqueue stages m for its destination's next envelope; since is when the
// queue, if m opens it, began to wait (the batching timer's start).
func (n *Node) enqueue(m types.Message, since types.Time) {
	n.outQ[m.Dst] = append(n.outQ[m.Dst], m)
	if _, ok := n.queueSince[m.Dst]; !ok {
		n.queueSince[m.Dst] = since
		if i, found := slices.BinarySearch(n.dstOrder, m.Dst); !found {
			n.dstOrder = slices.Insert(n.dstOrder, i, m.Dst)
		}
	}
}

// flushAll transmits every queued envelope, in destination order. The first
// flush error is returned; remaining destinations are still attempted.
func (n *Node) flushAll() error {
	if len(n.dstOrder) == 0 {
		return nil
	}
	var err error
	for _, d := range append([]types.NodeID(nil), n.dstOrder...) {
		if err2 := n.flush(d); err == nil {
			err = err2
		}
	}
	return err
}

// flush sends one envelope carrying all messages queued for dst: one snd
// log entry, one signature, one eventual ack (§5.4, §5.6). A signing
// failure is recorded as the node's fault and returned: the snd entry is
// already in the log, so the unsent (and thus unacknowledged) envelope will
// surface in audits, but the rest of the deployment keeps running.
func (n *Node) flush(dst types.NodeID) error {
	msgs := n.outQ[dst]
	if len(msgs) == 0 {
		return nil
	}
	delete(n.outQ, dst)
	delete(n.queueSince, dst)
	if i, found := slices.BinarySearch(n.dstOrder, dst); found {
		n.dstOrder = slices.Delete(n.dstOrder, i, i+1)
	}
	t := n.now()
	prev := append([]byte(nil), n.Log.HeadHash()...)
	seq := n.Log.Append(&seclog.Entry{T: t, Type: seclog.ESnd, Msgs: msgs})
	hx := n.Log.HeadHash()
	sig, err := n.Log.Sign(t, hx)
	if err != nil {
		return n.fault(fmt.Errorf("core: signing failed on %s: %w", n.ID, err))
	}
	env := &Envelope{Msgs: msgs, PrevHash: prev, T: t, Sig: sig, Seq: seq, hash: hx}
	id := msgs[0].ID()
	n.outstanding[id] = &pendingEnvelope{dst: dst, env: env, prevHash: prev, sent: t}
	if i, found := slices.BinarySearchFunc(n.outOrder, id, cmpOutID); !found {
		n.outOrder = slices.Insert(n.outOrder, i, id)
	}
	n.send(dst, &Packet{Kind: PktEnvelope, Envelope: env})
	return nil
}

// ---------------------------------------------------------------------------
// Commitment protocol, receive side.

// HandlePacket dispatches one transport packet.
func (n *Node) HandlePacket(from types.NodeID, pkt *Packet) error {
	switch pkt.Kind {
	case PktEnvelope:
		return n.handleEnvelope(from, pkt.Envelope)
	case PktAck:
		return n.handleAck(from, pkt.Ack)
	default:
		return fmt.Errorf("core: unknown packet kind %d", pkt.Kind)
	}
}

func (n *Node) handleEnvelope(from types.NodeID, env *Envelope) error {
	if len(env.Msgs) == 0 {
		return fmt.Errorf("core: empty envelope from %s", from)
	}
	// At-least-once delivery: a retransmitted envelope we already logged is
	// answered by replaying the original ack — the log and the machine must
	// see each exchange exactly once. The signature comparison ensures only
	// a bit-identical duplicate takes this path.
	if cache, ok := n.rcvSeen[from]; ok {
		if ack, dup := cache.lookup(env); dup {
			n.send(from, ack)
			return nil
		}
	}
	pub, err := n.dir.Key(from)
	if err != nil {
		return err
	}
	// Reconstruct the sender's snd entry and verify the commitment: the
	// signature must cover h_x = H(h_{x−1} ‖ t_x ‖ snd ‖ (msgs)).
	sndEntry := &seclog.Entry{T: env.T, Type: seclog.ESnd, Msgs: env.Msgs}
	hx := seclog.ChainHash(n.suite, n.Stats, env.PrevHash, sndEntry)
	if !seclog.VerifyCommitment(n.Stats, pub, env.T, hx, env.Sig) {
		return fmt.Errorf("core: bad envelope signature from %s", from)
	}
	t := n.now()
	if skew := env.T - t; skew > n.cfg.DeltaClock+n.cfg.Tprop || -skew > n.cfg.DeltaClock+n.cfg.Tprop {
		return fmt.Errorf("core: envelope timestamp from %s outside Δclock+Tprop", from)
	}
	for i := range env.Msgs {
		if env.Msgs[i].Src != from || env.Msgs[i].Dst != n.ID {
			return fmt.Errorf("core: envelope from %s carries foreign message %s", from, env.Msgs[i])
		}
	}
	n.Auths.Add(seclog.Authenticator{Node: from, Seq: env.Seq, T: env.T, Hash: hx, Sig: env.Sig})

	hyPrev := append([]byte(nil), n.Log.HeadHash()...)
	y := n.Log.Append(&seclog.Entry{T: t, Type: seclog.ERcv, Msgs: env.Msgs,
		PeerPrevHash: env.PrevHash, PeerTime: env.T, PeerSig: env.Sig, PeerSeq: env.Seq})
	hy := n.Log.HeadHash()
	sig, err := n.Log.Sign(t, hy)
	if err != nil {
		return n.fault(fmt.Errorf("core: signing failed on %s: %w", n.ID, err))
	}
	ids := make([]types.MessageID, len(env.Msgs))
	for i := range env.Msgs {
		ids[i] = env.Msgs[i].ID()
	}
	ackPkt := &Packet{Kind: PktAck, Ack: &Ack{
		IDs: ids, PrevHash: hyPrev, T: t, Sig: sig, Seq: y, hash: hy,
	}}
	if n.rcvSeen == nil {
		n.rcvSeen = make(map[types.NodeID]*rcvCache)
	}
	cache, ok := n.rcvSeen[from]
	if !ok {
		cache = new(rcvCache)
		n.rcvSeen[from] = cache
	}
	cache.remember(env, ackPkt)
	n.send(from, ackPkt)
	// Feed the messages to the machine, in envelope order.
	var stepErr error
	for i := range env.Msgs {
		msg := env.Msgs[i]
		if err := n.step(types.Event{Kind: types.EvRcv, Node: n.ID, Time: t, Msg: &msg}); stepErr == nil {
			stepErr = err
		}
	}
	return stepErr
}

func (n *Node) handleAck(from types.NodeID, ack *Ack) error {
	if len(ack.IDs) == 0 {
		return fmt.Errorf("core: empty ack from %s", from)
	}
	pend, ok := n.outstanding[ack.IDs[0]]
	if !ok {
		// A completed exchange acked twice (retransmission raced the
		// original's ack) is at-least-once delivery at work, not a
		// protocol violation.
		if _, dup := n.ackSeen[ack.IDs[0]]; dup {
			return nil
		}
		return fmt.Errorf("core: unexpected ack from %s", from)
	}
	if pend.dst != from {
		return fmt.Errorf("core: unexpected ack from %s", from)
	}
	pub, err := n.dir.Key(from)
	if err != nil {
		return err
	}
	// Reconstruct the receiver's rcv entry and verify σ_j(t_y ‖ h_y).
	rcvEntry := &seclog.Entry{T: ack.T, Type: seclog.ERcv, Msgs: pend.env.Msgs,
		PeerPrevHash: pend.env.PrevHash, PeerTime: pend.env.T,
		PeerSig: pend.env.Sig, PeerSeq: pend.env.Seq}
	hy := seclog.ChainHash(n.suite, n.Stats, ack.PrevHash, rcvEntry)
	if !seclog.VerifyCommitment(n.Stats, pub, ack.T, hy, ack.Sig) {
		return fmt.Errorf("core: bad ack signature from %s", from)
	}
	t := n.now()
	if skew := ack.T - t; skew > n.cfg.DeltaClock+n.cfg.Tprop || -skew > n.cfg.DeltaClock+n.cfg.Tprop {
		return fmt.Errorf("core: ack timestamp from %s outside Δclock+Tprop", from)
	}
	n.Auths.Add(seclog.Authenticator{Node: from, Seq: ack.Seq, T: ack.T, Hash: hy, Sig: ack.Sig})
	n.Log.Append(&seclog.Entry{T: t, Type: seclog.EAck, AckIDs: ack.IDs,
		PeerPrevHash: ack.PrevHash, PeerTime: ack.T, PeerSig: ack.Sig, PeerSeq: ack.Seq,
		EnvSig: pend.env.Sig})
	delete(n.outstanding, ack.IDs[0])
	if i, found := slices.BinarySearchFunc(n.outOrder, ack.IDs[0], cmpOutID); found {
		n.outOrder = slices.Delete(n.outOrder, i, i+1)
	}
	if n.ackSeen == nil {
		n.ackSeen = make(map[types.MessageID]struct{})
	}
	if len(n.ackSeenOrder) >= ackSeenCap {
		delete(n.ackSeen, n.ackSeenOrder[0])
		n.ackSeenOrder = n.ackSeenOrder[1:]
	}
	n.ackSeen[ack.IDs[0]] = struct{}{}
	n.ackSeenOrder = append(n.ackSeenOrder, ack.IDs[0])
	return nil
}

// cmpOutID orders outstanding envelope IDs by (Dst, Seq) — the retransmit
// scan order (Src is always the local node).
func cmpOutID(a, b types.MessageID) int {
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// ---------------------------------------------------------------------------
// Periodic duties.

// Tick drives batching, retransmission, missing-ack notification, and
// checkpointing. The harness calls it periodically. The returned error
// reports a local fault (signing failure on a batched flush); the node
// keeps ticking.
func (n *Node) Tick() error {
	t := n.now()
	var err error
	// Flush batches older than Tbatch.
	if n.cfg.Tbatch > 0 && len(n.dstOrder) > 0 {
		for _, d := range append([]types.NodeID(nil), n.dstOrder...) {
			if t-n.queueSince[d] >= n.cfg.Tbatch {
				if err2 := n.flush(d); err == nil {
					err = err2
				}
			}
		}
	}
	// Retransmit unacknowledged envelopes once after Tprop; notify the
	// maintainer after 2·Tprop (§5.4). outOrder is maintained sorted by
	// (Dst, Seq), so no per-tick sort is needed.
	for _, id := range n.outOrder {
		pend := n.outstanding[id]
		age := t - pend.sent
		if age > n.cfg.Tprop && !pend.retried && n.net != nil {
			pend.retried = true
			n.send(pend.dst, &Packet{Kind: PktEnvelope, Envelope: pend.env})
		}
		if age > 2*n.cfg.Tprop && !pend.notified {
			pend.notified = true
			if n.maintainer != nil {
				// The whole envelope is unacknowledged: report every message
				// in it, not just the envelope's identifying first message —
				// the audit's missing-ack bookkeeping is per message, and a
				// partially reported batch would leave the unreported ones
				// looking like the sender hid them.
				for i := range pend.env.Msgs {
					n.maintainer.NotifyMissingAck(n.ID, pend.env.Msgs[i].ID())
				}
			}
		}
	}
	// Checkpoint.
	if n.cfg.CheckpointEvery > 0 && t-n.lastCkpt >= n.cfg.CheckpointEvery {
		n.WriteCheckpoint()
	}
	return err
}

// WriteCheckpoint records the machine's full state in the log (§5.6).
func (n *Node) WriteCheckpoint() {
	t := n.now()
	n.lastCkpt = t
	ck := seclog.BuildCheckpoint(n.suite, n.Stats, n.Machine.Snapshot(), ExtantsOf(n.Machine))
	n.Log.Append(&seclog.Entry{T: t, Type: seclog.ECkpt, Ckpt: ck})
}

// ---------------------------------------------------------------------------
// Audit interface (control plane).

// ErrAuditRefused is returned by faulty nodes that ignore retrieve
// requests; the querier leaves the vertex yellow.
var ErrAuditRefused = fmt.Errorf("core: node refuses to answer")

// HandleRetrieve serves the retrieve primitive of §5.4: the log segment
// from the last checkpoint before StartTime through at least the evidence
// position (extended to EndTime or the head, with a fresh authenticator).
//
// Every sequence number derived from the request is peer-influenced and is
// range-checked before it touches the log: a malformed or adversarial
// request yields an error (evidence for the querier), never a panic.
func (n *Node) HandleRetrieve(req RetrieveRequest) (*RetrieveResponse, error) {
	from, end, auth, err := n.retrieve(req)
	if err != nil {
		return nil, err
	}
	seg, err := n.Log.Segment(from, end)
	if err != nil {
		return nil, err
	}
	resp := &RetrieveResponse{Segment: seg, NewAuth: auth}
	if n.TamperRetrieve != nil {
		return n.TamperRetrieve(req, resp)
	}
	return resp, nil
}

// WriteRetrieve writes to w what HandleRetrieve's answer to req marshals to,
// and fails when HandleRetrieve fails. The segment's stored entries are copied
// as they are (seclog.Log.WriteSegment), so a reply over the wire decodes no
// record only to encode it again; a node with TamperRetrieve set answers
// through HandleRetrieve, so that the hook still sees decoded entries. On
// error w holds part of an answer and must be discarded.
func (n *Node) WriteRetrieve(w *wire.Writer, req RetrieveRequest) error {
	if n.TamperRetrieve != nil {
		resp, err := n.HandleRetrieve(req)
		if err == nil {
			resp.MarshalWire(w)
		}
		return err
	}
	from, end, auth, err := n.retrieve(req)
	if err != nil {
		return err
	}
	if err := n.Log.WriteSegment(w, from, end); err != nil {
		return err
	}
	marshalNewAuth(w, auth)
	return nil
}

// retrieve is what an answer to req serves: the log segment [from..end], and
// a fresh authenticator for end unless end is the request's own evidence.
func (n *Node) retrieve(req RetrieveRequest) (from, end uint64, auth *seclog.Authenticator, err error) {
	if n.RefuseAudit {
		return 0, 0, nil, ErrAuditRefused
	}
	last := n.Log.Len()
	if last == 0 {
		return 0, 0, nil, fmt.Errorf("core: %s has an empty log", n.ID)
	}
	// Position of the first entry at or after StartTime. Entry timestamps
	// are monotone (now() never goes backwards), so a binary search matches
	// the historical linear scan without paging in cold history.
	var readErr error
	entryT := func(seq uint64) types.Time {
		e, eerr := n.Log.Entry(seq)
		if eerr != nil {
			if readErr == nil {
				readErr = eerr
			}
			return types.Time(0)
		}
		return e.T
	}
	idx := sort.Search(int(last), func(i int) bool { return readErr != nil || entryT(uint64(i)+1) >= req.StartTime })
	if readErr != nil {
		return 0, 0, nil, readErr
	}
	start := min(uint64(idx)+1, last)
	from = max(n.Log.LastCheckpointBefore(start), 1)
	// End: cover the evidence and the vertex lifetime.
	end = max(req.Auth.Seq, from)
	if end > last {
		return 0, 0, nil, fmt.Errorf("core: %s cannot cover evidence position %d (log ends at %d)", n.ID, end, last)
	}
	if req.EndTime == 0 || req.EndTime >= n.lastEntryT {
		end = last
	} else {
		// The first entry in [end..last] past EndTime (inclusive), or last.
		span := int(last - end + 1)
		m := sort.Search(span, func(i int) bool { return readErr != nil || entryT(end+uint64(i)) > req.EndTime })
		if readErr != nil {
			return 0, 0, nil, readErr
		}
		end = min(end+uint64(m), last)
	}
	if end == req.Auth.Seq && req.Auth.Node == n.ID {
		return from, end, nil, nil
	}
	a, err := n.Log.AuthenticatorAt(end)
	return from, end, &a, err
}

// AuthsAbout serves the consistency check (§5.5): every authenticator this
// node holds that was signed by target with a timestamp in [t1, t2].
func (n *Node) AuthsAbout(target types.NodeID, t1, t2 types.Time) []seclog.Authenticator {
	if n.RefuseAudit {
		return nil
	}
	return n.Auths.FromInInterval(target, t1, t2)
}

// AuthsSince serves the same check incrementally: the authenticators signed by
// target this node holds from position from of the list it keeps of them (all
// of it, for a from past the end), and the list's length. A node that refuses
// audits answers as AuthsAbout does, with nothing.
func (n *Node) AuthsSince(target types.NodeID, from uint64) ([]seclog.Authenticator, uint64) {
	if n.RefuseAudit {
		return nil, 0
	}
	return n.Auths.Since(target, from)
}

// LatestAuth returns the freshest authenticator this node can produce about
// itself (used to bootstrap evidence for queries).
func (n *Node) LatestAuth() (seclog.Authenticator, error) {
	if n.Log.Len() == 0 {
		return seclog.Authenticator{}, fmt.Errorf("core: %s has an empty log", n.ID)
	}
	if n.RefuseAudit {
		return seclog.Authenticator{}, ErrAuditRefused
	}
	return n.Log.Authenticator()
}

// Now exposes the node's clock (monotonic log time).
func (n *Node) Now() types.Time { return n.now() }
