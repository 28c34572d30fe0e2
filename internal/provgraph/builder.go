package provgraph

import (
	"strings"

	"repro/internal/types"
)

// Builder runs the graph-construction algorithm of Appendix B (Figures
// 10–11) over a history of events, translating each event and the outputs
// its node's deterministic state machine produced for it into provenance
// vertices and edges. The Builder holds no machine: whoever replays the
// history (core.Auditor.Prepare) steps one and hands the outputs over with
// the event.
//
// The Builder maintains the four bookkeeping sets of the pseudocode:
//
//	pending  — snd outputs produced by a machine but not yet seen in the
//	           history (a leftover entry means the node suppressed a message)
//	ackpend  — receive vertices whose acknowledgment has not been sent yet
//	unacked  — send vertices whose acknowledgment has not been received yet
//	nopreds  — send vertices with no incoming edge yet
//
// A Builder can process events from many nodes (building the global graph
// G(e)) or from a single node (building the projection G|i; Theorem 2 says
// they agree).
type Builder struct {
	G     *Graph
	tprop types.Time

	// pending is keyed by the send vertex itself — its identity includes
	// the content, so a logged transmission only matches a machine output
	// with identical payload; ackpend/unacked are keyed by message ID
	// because acknowledgments reference messages by ID. All three are
	// grouped per node, because they are visited on every single event of
	// that node (see insmap and unackedSet for what a visit costs). nopreds
	// is a flag on the vertex.
	pending map[types.NodeID]*insmap[*Vertex]
	ackpend map[types.NodeID]*insmap[types.MessageID]
	unacked map[types.NodeID]*unackedSet

	// MissedAckKnown reports whether the maintainer was notified about a
	// missing acknowledgment (§5.4): if so, an unacked send is left yellow
	// instead of turning red at Finalize time.
	MissedAckKnown func(node types.NodeID, id types.MessageID) bool

	// MaybeValidator, when set, performs the application-specific part of
	// 'maybe' rule validation beyond body existence (e.g. BGP's "the
	// exported path must extend an imported one", §6.3). Returning false
	// colors the firing's derive vertex red.
	MaybeValidator func(rule string, host types.NodeID, head types.Tuple, body []types.Tuple) bool
}

// sendVertex returns the send vertex (payload included) a logged
// transmission of m must match, or nil.
func (b *Builder) sendVertex(m *types.Message) *Vertex {
	return b.G.Find(&Vertex{Type: VSend, Host: m.Src, Msg: m})
}

// NewBuilder returns a Builder over a fresh graph. tprop is the maximum
// message propagation delay Tprop (§5.2, assumption 4).
func NewBuilder(tprop types.Time) *Builder {
	return &Builder{
		G:       New(),
		tprop:   tprop,
		pending: make(map[types.NodeID]*insmap[*Vertex]),
		ackpend: make(map[types.NodeID]*insmap[types.MessageID]),
		unacked: make(map[types.NodeID]*unackedSet),
	}
}

// forNode returns m[i], creating it with mk on first use.
func forNode[T any](m map[types.NodeID]*T, i types.NodeID, mk func() *T) *T {
	x := m[i]
	if x == nil {
		x = mk()
		m[i] = x
	}
	return x
}

// delUnackedIf removes node's unacked entry for id if it is exactly v.
func (b *Builder) delUnackedIf(node types.NodeID, id types.MessageID, v *Vertex) {
	if u := b.unacked[node]; u != nil && u.byID[id] == v {
		delete(u.byID, id)
	}
}

// flagPending turns node's pending sends red: the machine produced them and
// the history moved on without transmitting them.
func (b *Builder) flagPending(node types.NodeID) {
	if m := b.pending[node]; m != nil {
		m.drain(func(v *Vertex) {
			b.G.SetColor(v, Red)
			b.delUnackedIf(node, v.Msg.ID(), v)
		})
	}
}

// flagUnacked turns red node's sends from before cutoff that are still
// unacknowledged, unless the maintainer was told about the missing ack.
func (b *Builder) flagUnacked(node types.NodeID, cutoff types.Time) {
	if u := b.unacked[node]; u != nil {
		u.expire(cutoff, func(id types.MessageID, v *Vertex) {
			// A sender that reported the missing ack in time (§5.4) is not
			// at fault — the receiver or the channel is — and the send stays
			// yellow: red here would accuse the honest sender, exactly what
			// the report exists to prevent.
			if b.MissedAckKnown == nil || !b.MissedAckKnown(node, id) {
				b.G.SetColor(v, Red)
			}
		})
	}
}

// SeedExist records, without provenance, that tuple existed on host since
// appeared — used when replay starts from a checkpoint (§5.6). The vertex is
// marked FromCheckpoint; its causes live in an earlier log segment.
func (b *Builder) SeedExist(host types.NodeID, tup types.Tuple, appeared types.Time) *Vertex {
	if v := b.G.OpenExist(host, tup); v != nil {
		return v
	}
	v := &Vertex{Type: VExist, Host: host, Tuple: tup, T1: appeared, T2: Forever,
		Color: Black, FromCheckpoint: true}
	return b.G.Add(v)
}

// SeedBelieve is SeedExist for a believed remote tuple.
func (b *Builder) SeedBelieve(host, origin types.NodeID, tup types.Tuple, appeared types.Time) *Vertex {
	if v := b.G.OpenBelieve(host, origin, tup); v != nil {
		return v
	}
	v := &Vertex{Type: VBelieve, Host: host, Remote: origin, Tuple: tup,
		T1: appeared, T2: Forever, Color: Black, FromCheckpoint: true}
	return b.G.Add(v)
}

// StepsMachine reports whether the GCA feeds ev to the node's state machine:
// snd events are checked against machine outputs instead, and acknowledgments
// are transport-level.
func StepsMachine(ev types.Event) bool {
	return ev.Kind != types.EvSnd && !ev.IsAck()
}

// ApplyReplayed processes one history event: steps 3–5 of the GCA main
// loop. outs is what the node's machine produced when it was stepped with ev
// (nothing for the events StepsMachine excludes). Events must be presented
// in per-node chronological order.
func (b *Builder) ApplyReplayed(ev types.Event, outs []types.Output) {
	switch ev.Kind {
	case types.EvIns:
		b.handleEventIns(ev)
	case types.EvDel:
		b.handleEventDel(ev)
	case types.EvSnd:
		b.handleEventSnd(ev)
	case types.EvRcv:
		b.handleEventRcv(ev)
	}
	for _, out := range outs {
		b.handleOutput(ev.Node, out, ev.Time)
	}
}

// Finalize flags leftover bookkeeping at the end of a complete history
// prefix: machine outputs that were never sent (suppression), receives that
// were never acknowledged, and sends whose acknowledgment did not arrive
// within 2·Tprop and for which the maintainer was not notified. end gives
// each node's final local time.
func (b *Builder) Finalize(end map[types.NodeID]types.Time) {
	for _, node := range sortedNodeKeys(b.pending) {
		b.flagPending(node)
	}
	for _, node := range sortedNodeKeys(b.ackpend) {
		b.flagAckpend(node)
	}
	for _, node := range sortedNodeKeys(b.unacked) {
		// Without an end time nothing of the node is old enough to judge.
		if t, ok := end[node]; ok {
			b.flagUnacked(node, t-2*b.tprop)
		}
	}
}

// HandleExtraMsg processes evidence of a message that is inconsistent with
// the retrieved logs (equivocation, or a log that denies a send the querier
// holds proof of). Both endpoints' vertices are created red unless already
// present (Figure 11, handle-extra-msg).
func (b *Builder) HandleExtraMsg(m *types.Message) {
	b.G.Add(&Vertex{Type: VSend, Host: m.Src, Remote: m.Dst, Msg: m, T1: m.SendTime, Color: Red})
	b.G.Add(&Vertex{Type: VReceive, Host: m.Dst, Remote: m.Src, Msg: m, T1: m.SendTime, Color: Red})
}

// ---------------------------------------------------------------------------
// Event handlers (Figure 11, left column).

func (b *Builder) handleEventIns(ev types.Event) {
	b.flagAllPending(ev.Node, ev.Time)
	var vwhy *Vertex
	if ev.MaybeRule == "" {
		vwhy = b.G.Add(&Vertex{Type: VInsert, Host: ev.Node, Tuple: ev.Tuple, T1: ev.Time, Color: Black})
	} else {
		// A 'maybe' rule firing (§3.4): provenance is a derive vertex whose
		// body tuples must all be present; a missing body tuple means the
		// node fired a maybe rule it was not entitled to, which is provable
		// misbehavior, so the vertex turns red.
		vwhy = b.deriveVertex(ev.Node, ev.Tuple, ev.MaybeRule, ev.MaybeBody, ev.Time, true)
		if b.MaybeValidator != nil && !b.MaybeValidator(ev.MaybeRule, ev.Node, ev.Tuple, ev.MaybeBody) {
			b.G.SetColor(vwhy, Red)
		}
	}
	b.appearLocalTuple(ev.Node, ev.Tuple, vwhy, ev.Time, ev.Replaces)
}

func (b *Builder) handleEventDel(ev types.Event) {
	b.flagAllPending(ev.Node, ev.Time)
	var vwhy *Vertex
	if ev.MaybeRule == "" {
		vwhy = b.G.Add(&Vertex{Type: VDelete, Host: ev.Node, Tuple: ev.Tuple, T1: ev.Time, Color: Black})
	} else {
		vwhy = b.underiveVertex(ev.Node, ev.Tuple, ev.MaybeRule, ev.MaybeBody, ev.Time)
	}
	b.disappearLocalTuple(ev.Node, ev.Tuple, vwhy, ev.Time)
}

func (b *Builder) handleEventSnd(ev types.Event) {
	i := ev.Node
	if ev.IsAck() {
		// i acknowledges a message it received earlier: the receive vertex
		// is no longer provisional.
		if m := b.ackpend[i]; m != nil {
			if v1 := m.get(*ev.AckID); v1 != nil {
				m.del(*ev.AckID)
				b.G.SetColor(v1, Black)
			}
		}
		b.flagAckpend(i)
		return
	}
	m := ev.Msg
	if pend := b.pending[i]; pend != nil {
		if v := b.sendVertex(m); v != nil && pend.get(v) != nil {
			// The send was produced by the machine with identical content:
			// legitimate.
			pend.del(v)
			b.flagAckpend(i)
			return
		}
	}
	// The history records a transmission the machine never produced:
	// fabricated traffic (Lemma 3, cases 1 and 3).
	v2 := b.addSendVertex(m, nil, ev.Time)
	b.delUnackedIf(i, m.ID(), v2)
	b.G.SetColor(v2, Red)
	b.flagAckpend(i)
}

func (b *Builder) handleEventRcv(ev types.Event) {
	i := ev.Node
	if !ev.SameBatch {
		b.flagAllPending(i, ev.Time)
	}
	if ev.IsAck() {
		// i received an acknowledgment for its own message: the ack proves
		// the peer received it, so the peer's receive vertex exists and i's
		// send vertex turns black.
		u := b.unacked[i]
		if u == nil {
			return
		}
		v1 := u.byID[*ev.AckID]
		if v1 == nil {
			return // ack for an unknown message; ignore
		}
		b.addReceiveVertex(v1.Msg, ev.AckTime)
		delete(u.byID, *ev.AckID)
		b.G.SetColor(v1, Black)
		return
	}
	m := ev.Msg
	v1 := b.addReceiveVertex(m, ev.Time)
	forNode(b.ackpend, i, newInsmap[types.MessageID]).set(m.ID(), v1)
	switch m.Pol {
	case types.PolAppear:
		b.appearRemoteTuple(i, m.Tuple, m.Src, v1, ev.Time)
	case types.PolDisappear:
		b.disappearRemoteTuple(i, m.Tuple, m.Src, v1, ev.Time)
	case types.PolBoth:
		// Transient event tuple: it appears and immediately disappears.
		b.appearRemoteTuple(i, m.Tuple, m.Src, v1, ev.Time)
		b.disappearRemoteTuple(i, m.Tuple, m.Src, v1, ev.Time)
	}
}

// ---------------------------------------------------------------------------
// Output handlers (Figure 11, right column).

func (b *Builder) handleOutput(i types.NodeID, out types.Output, t types.Time) {
	switch out.Kind {
	case types.OutDerive:
		v1 := b.deriveVertex(i, out.Tuple, out.Rule, out.Body, t, false)
		if out.First {
			b.appearLocalTuple(i, out.Tuple, v1, t, out.Replaces)
		} else if ap := b.G.FirstInstant(VAppear, i, out.Tuple, t); ap != nil {
			// Additional simultaneous derivation of an extant tuple.
			_ = b.G.AddEdge(v1, ap)
		} else {
			// The tuple already existed; give this derivation its own
			// appear vertex feeding the shared open exist vertex, as in
			// Figure 2 (one EXIST fed by two DERIVEs).
			b.appearLocalTuple(i, out.Tuple, v1, t, nil)
		}
	case types.OutUnderive:
		v1 := b.underiveVertex(i, out.Tuple, out.Rule, out.Body, t)
		if out.Last {
			b.disappearLocalTuple(i, out.Tuple, v1, t)
		}
	case types.OutSend:
		m := out.Msg
		var vwhy *Vertex
		if m.Pol == types.PolDisappear {
			vwhy = b.G.FirstInstant(VDisappear, i, m.Tuple, t)
		} else {
			vwhy = b.G.FirstInstant(VAppear, i, m.Tuple, t)
		}
		v1 := b.addSendVertex(m, vwhy, t)
		forNode(b.pending, i, newInsmap[*Vertex]).set(v1, v1)
	}
}

// deriveVertex creates a derive vertex and connects it to the vertices that
// justify each body tuple, preferring the state change that triggered the
// rule at this instant (believe-appear, then appear) and falling back to the
// extant state (open believe, then open exist), exactly as in
// handle-output-der. When maybeCheck is set and a body tuple has no
// justification, the vertex turns red (invalid maybe firing).
func (b *Builder) deriveVertex(i types.NodeID, tup types.Tuple, rule string, body []types.Tuple, t types.Time, maybeCheck bool) *Vertex {
	v1 := b.G.Add(&Vertex{Type: VDerive, Host: i, Tuple: tup, Rule: rule,
		Remote: bodyFingerprint(body), T1: t, Color: Black})
	for _, tx := range body {
		vb := b.bodyAppearJustification(i, tx, t)
		if vb == nil {
			if maybeCheck {
				b.G.SetColor(v1, Red)
				continue
			}
			// Fall back to an open exist vertex of unknown origin (the
			// pseudocode's implicit exist(i, τx, [?, ∞)); arises only when
			// replay starts from a checkpoint).
			vb = b.SeedExist(i, tx, t)
		}
		_ = b.G.AddEdge(vb, v1)
	}
	return v1
}

func (b *Builder) bodyAppearJustification(i types.NodeID, tx types.Tuple, t types.Time) *Vertex {
	if v := b.G.FirstInstant(VBelieveAppear, i, tx, t); v != nil {
		return v
	}
	if v := b.G.FirstInstant(VAppear, i, tx, t); v != nil {
		return v
	}
	if v := b.G.OpenBelieveAny(i, tx); v != nil {
		return v
	}
	if v := b.G.OpenExist(i, tx); v != nil {
		return v
	}
	return nil
}

func (b *Builder) underiveVertex(i types.NodeID, tup types.Tuple, rule string, body []types.Tuple, t types.Time) *Vertex {
	v1 := b.G.Add(&Vertex{Type: VUnderive, Host: i, Tuple: tup, Rule: rule,
		Remote: bodyFingerprint(body), T1: t, Color: Black})
	for _, tx := range body {
		var vb *Vertex
		if vb = b.G.FirstInstant(VBelieveDisappear, i, tx, t); vb == nil {
			if vb = b.G.FirstInstant(VDisappear, i, tx, t); vb == nil {
				if vb = b.G.OpenBelieveAny(i, tx); vb == nil {
					if vb = b.G.OpenExist(i, tx); vb == nil {
						vb = b.SeedExist(i, tx, t)
					}
				}
			}
		}
		_ = b.G.AddEdge(vb, v1)
	}
	return v1
}

// bodyFingerprint distinguishes derive vertices for distinct rule firings
// of the same rule, tuple, and instant. It is stored in the vertex's Remote
// field, which derive/underive vertices do not otherwise use.
func bodyFingerprint(body []types.Tuple) types.NodeID {
	var sb strings.Builder
	for _, t := range body {
		sb.WriteString(t.Key())
		sb.WriteByte(';')
	}
	return types.NodeID(sb.String())
}

// ---------------------------------------------------------------------------
// Library functions (Figure 10).

func (b *Builder) appearLocalTuple(i types.NodeID, tup types.Tuple, vwhy *Vertex, t types.Time, replaces []types.Tuple) {
	v1 := b.G.Add(&Vertex{Type: VAppear, Host: i, Tuple: tup, T1: t, Color: Black})
	v2 := b.G.OpenExist(i, tup)
	if v2 == nil {
		v2 = b.G.Add(&Vertex{Type: VExist, Host: i, Tuple: tup, T1: t, T2: Forever, Color: Black})
	}
	if vwhy != nil {
		_ = b.G.AddEdge(vwhy, v1)
	}
	_ = b.G.AddEdge(v1, v2)
	for _, gone := range replaces {
		if d := b.G.FirstInstant(VDisappear, i, gone, t); d != nil {
			// §3.4 constraint edge: the replaced tuple's disappearance is
			// part of this tuple's provenance.
			_ = b.G.AddEdge(d, v1)
		}
	}
}

func (b *Builder) disappearLocalTuple(i types.NodeID, tup types.Tuple, vwhy *Vertex, t types.Time) {
	v1 := b.G.Add(&Vertex{Type: VDisappear, Host: i, Tuple: tup, T1: t, Color: Black})
	if vwhy != nil {
		_ = b.G.AddEdge(vwhy, v1)
	}
	if v2 := b.G.OpenExist(i, tup); v2 != nil {
		_ = b.G.AddEdge(v1, v2)
		b.G.CloseInterval(v2, t)
	}
}

func (b *Builder) appearRemoteTuple(i types.NodeID, tup types.Tuple, j types.NodeID, vwhy *Vertex, t types.Time) {
	v1 := b.G.Add(&Vertex{Type: VBelieveAppear, Host: i, Remote: j, Tuple: tup, T1: t, Color: Black})
	v2 := b.G.OpenBelieve(i, j, tup)
	if v2 == nil {
		v2 = b.G.Add(&Vertex{Type: VBelieve, Host: i, Remote: j, Tuple: tup, T1: t, T2: Forever, Color: Black})
	}
	if vwhy != nil {
		_ = b.G.AddEdge(vwhy, v1)
	}
	_ = b.G.AddEdge(v1, v2)
}

func (b *Builder) disappearRemoteTuple(i types.NodeID, tup types.Tuple, j types.NodeID, vwhy *Vertex, t types.Time) {
	v1 := b.G.Add(&Vertex{Type: VBelieveDisappear, Host: i, Remote: j, Tuple: tup, T1: t, Color: Black})
	if vwhy != nil {
		_ = b.G.AddEdge(vwhy, v1)
	}
	if v2 := b.G.OpenBelieve(i, j, tup); v2 != nil {
		_ = b.G.AddEdge(v1, v2)
		b.G.CloseInterval(v2, t)
	}
}

func (b *Builder) flagAllPending(i types.NodeID, t types.Time) {
	b.flagAckpend(i)
	b.flagPending(i)
	b.flagUnacked(i, t-2*b.tprop)
}

// flagAckpend turns node's provisional receives red: the history moved on
// without acknowledging them.
func (b *Builder) flagAckpend(i types.NodeID) {
	if m := b.ackpend[i]; m != nil {
		m.drain(func(v *Vertex) { b.G.SetColor(v, Red) })
	}
}

func (b *Builder) addSendVertex(m *types.Message, vwhy *Vertex, t types.Time) *Vertex {
	n := b.G.Len()
	v1 := b.G.Add(&Vertex{Type: VSend, Host: m.Src, Remote: m.Dst, Msg: m, T1: t, Color: Yellow})
	if b.G.Len() > n { // new
		v1.nopred = true
		forNode(b.unacked, m.Src, newUnackedSet).set(m.ID(), v1)
	}
	if v1.nopred && vwhy != nil {
		_ = b.G.AddEdge(vwhy, v1)
		v1.nopred = false
	}
	return v1
}

func (b *Builder) addReceiveVertex(m *types.Message, t types.Time) *Vertex {
	send := b.addSendVertex(m, nil, m.SendTime)
	v1 := b.G.Add(&Vertex{Type: VReceive, Host: m.Dst, Remote: m.Src, Msg: m, T1: t, Color: Yellow})
	_ = b.G.AddEdge(send, v1)
	return v1
}
