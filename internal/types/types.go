// Package types defines the vocabulary shared by every layer of the SNP
// stack: nodes, logical time, tuples (the paper's system-model state, §3.1),
// update messages (±τ), and the input/output alphabet of the deterministic
// per-node state machines (Appendix A.2).
package types

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// NodeID identifies a node in the distributed system.
type NodeID string

// Time is a node-local logical timestamp in nanoseconds. The paper interprets
// vertex timestamps relative to the hosting node (§3.2); the simulator gives
// every node its own (possibly skewed) clock.
type Time int64

// Convenient duration units for Time arithmetic.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
	Minute      Time = 60 * Second
)

func (t Time) String() string {
	return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
}

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// ---------------------------------------------------------------------------
// Values.

// ValueKind discriminates the variants of Value.
type ValueKind uint8

// Value kinds.
const (
	KindString ValueKind = iota
	KindInt
	KindNode
)

// Value is one argument of a tuple: a string, an integer, or a node
// identifier. Values are comparable with == and usable as map keys.
type Value struct {
	Kind ValueKind
	Str  string // KindString, KindNode
	Int  int64  // KindInt
}

// S returns a string value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// I returns an integer value.
func I(i int64) Value { return Value{Kind: KindInt, Int: i} }

// N returns a node-identifier value.
func N(id NodeID) Value { return Value{Kind: KindNode, Str: string(id)} }

// Node returns the value as a NodeID. It panics if the value is not a node;
// rule location attributes are validated at rule-compile time.
func (v Value) Node() NodeID {
	if v.Kind != KindNode {
		//snpvet:allow nopanic rule location attributes are validated at rule-compile time (dlog.Program), so no peer-influenced value reaches this accessor with the wrong kind
		panic(fmt.Sprintf("types: value %v is not a node", v))
	}
	return NodeID(v.Str)
}

// IsNode reports whether the value is a node identifier.
func (v Value) IsNode() bool { return v.Kind == KindNode }

func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindNode:
		return "@" + v.Str
	default:
		return fmt.Sprintf("?kind%d", v.Kind)
	}
}

// appendTo writes the value's canonical form into sb without allocating
// intermediate strings (the tuple-key hot path).
func (v Value) appendTo(sb *strings.Builder) {
	switch v.Kind {
	case KindString:
		sb.WriteString(v.Str)
	case KindInt:
		var buf [20]byte
		sb.Write(strconv.AppendInt(buf[:0], v.Int, 10))
	case KindNode:
		sb.WriteByte('@')
		sb.WriteString(v.Str)
	default:
		sb.WriteString(v.String())
	}
}

// Less imposes a total order on values (kind, then payload), used to make
// iteration deterministic.
func (v Value) Less(o Value) bool {
	if v.Kind != o.Kind {
		return v.Kind < o.Kind
	}
	if v.Kind == KindInt {
		return v.Int < o.Int
	}
	return v.Str < o.Str
}

// MarshalWire implements wire.Marshaler.
func (v Value) MarshalWire(w *wire.Writer) {
	w.Byte(byte(v.Kind))
	switch v.Kind {
	case KindInt:
		w.Int(v.Int)
	default:
		w.String(v.Str)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (v *Value) UnmarshalWire(r *wire.Reader) error {
	v.Kind = ValueKind(r.Byte())
	switch v.Kind {
	case KindInt:
		v.Int = r.Int()
	case KindString, KindNode:
		v.Str = r.String()
	default:
		if r.Err() == nil {
			return fmt.Errorf("types: invalid value kind %d", v.Kind)
		}
	}
	return r.Err()
}

// ---------------------------------------------------------------------------
// Tuples.

// Tuple is one item of system state: a relation name plus arguments. By
// convention Args[0] is the tuple's location attribute (the paper writes
// link(@r,a): the tuple lives on r). Tuples are immutable after construction.
type Tuple struct {
	Rel  string
	Args []Value
	key  string // canonical form, computed once
}

// MakeTuple constructs a tuple and precomputes its canonical key.
func MakeTuple(rel string, args ...Value) Tuple {
	t := Tuple{Rel: rel, Args: args}
	t.key = t.computeKey()
	return t
}

func (t Tuple) computeKey() string {
	var sb strings.Builder
	sb.Grow(len(t.Rel) + 2 + 12*len(t.Args))
	sb.WriteString(t.Rel)
	sb.WriteByte('(')
	for i, a := range t.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		a.appendTo(&sb)
	}
	sb.WriteByte(')')
	return sb.String()
}

// Key returns the canonical string form of the tuple; equal tuples have
// equal keys. It is valid for tuples built with MakeTuple or decoded from
// the wire.
func (t Tuple) Key() string {
	if t.key == "" && t.Rel != "" {
		return t.computeKey()
	}
	return t.key
}

func (t Tuple) String() string { return t.Key() }

// Loc returns the tuple's location attribute (Args[0] as a node).
func (t Tuple) Loc() NodeID { return t.Args[0].Node() }

// HasLoc reports whether the tuple has a node-valued location attribute.
func (t Tuple) HasLoc() bool { return len(t.Args) > 0 && t.Args[0].IsNode() }

// Equal reports whether two tuples are identical. It compares structure
// directly (values are comparable), so it never recomputes canonical keys
// the way a Key() comparison on a zero-cached tuple would.
func (t Tuple) Equal(o Tuple) bool {
	if t.Rel != o.Rel || len(t.Args) != len(o.Args) {
		return false
	}
	for i := range t.Args {
		if t.Args[i] != o.Args[i] {
			return false
		}
	}
	return true
}

// MarshalWire implements wire.Marshaler.
func (t Tuple) MarshalWire(w *wire.Writer) {
	w.String(t.Rel)
	w.Uint(uint64(len(t.Args)))
	for _, a := range t.Args {
		a.MarshalWire(w)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (t *Tuple) UnmarshalWire(r *wire.Reader) error {
	t.Rel = r.String()
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	if n > 1<<16 {
		return fmt.Errorf("types: tuple arity %d too large", n)
	}
	t.Args = make([]Value, n)
	for i := range t.Args {
		if err := t.Args[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	t.key = t.computeKey()
	return r.Err()
}

// ---------------------------------------------------------------------------
// Messages.

// Polarity says what an update message asserts about its tuple (§3.1: +τ
// when τ is derived or inserted, −τ when it is underived or removed).
// PolBoth is a transient event tuple: it appears and immediately disappears
// at the receiver; it exists so protocol events (e.g. a Chord lookup hop)
// cost one message instead of a +τ/−τ pair.
type Polarity uint8

// Polarity values.
const (
	PolAppear    Polarity = iota // +τ
	PolDisappear                 // −τ
	PolBoth                      // transient event tuple
)

func (p Polarity) String() string {
	switch p {
	case PolAppear:
		return "+"
	case PolDisappear:
		return "-"
	case PolBoth:
		return "!"
	default:
		return "?"
	}
}

// Message is a tuple-update notification from Src to Dst. Seq is assigned by
// the sender per destination and makes every message unique (Appendix A.3
// requires that each message is sent at most once).
type Message struct {
	Src      NodeID
	Dst      NodeID
	Pol      Polarity
	Tuple    Tuple
	SendTime Time // txmit(m): the sender's clock when the message was logged
	Seq      uint64
}

// ID returns a unique identity for the message.
func (m Message) ID() MessageID { return MessageID{m.Src, m.Dst, m.Seq} }

// MessageID identifies a message: sender, receiver and sender-assigned
// sequence number.
type MessageID struct {
	Src NodeID
	Dst NodeID
	Seq uint64
}

func (m Message) String() string {
	return fmt.Sprintf("%s%s %s->%s #%d @%v", m.Pol, m.Tuple, m.Src, m.Dst, m.Seq, m.SendTime)
}

// MarshalWire implements wire.Marshaler.
func (m Message) MarshalWire(w *wire.Writer) {
	w.String(string(m.Src))
	w.String(string(m.Dst))
	w.Byte(byte(m.Pol))
	m.Tuple.MarshalWire(w)
	w.Int(int64(m.SendTime))
	w.Uint(m.Seq)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Message) UnmarshalWire(r *wire.Reader) error {
	m.Src = NodeID(r.String())
	m.Dst = NodeID(r.String())
	m.Pol = Polarity(r.Byte())
	if err := m.Tuple.UnmarshalWire(r); err != nil {
		return err
	}
	m.SendTime = Time(r.Int())
	m.Seq = r.Uint()
	return r.Err()
}

// ---------------------------------------------------------------------------
// State-machine inputs and outputs (Appendix A.2).

// EventKind discriminates history events.
type EventKind uint8

// Event kinds. EvSnd appears in histories/logs but is never fed to the state
// machine (it is checked against the machine's outputs instead).
const (
	EvIns EventKind = iota // base-tuple (or maybe-rule head) insertion
	EvDel                  // base-tuple (or maybe-rule head) deletion
	EvRcv                  // message arrival
	EvSnd                  // message transmission
)

func (k EventKind) String() string {
	switch k {
	case EvIns:
		return "ins"
	case EvDel:
		return "del"
	case EvRcv:
		return "rcv"
	case EvSnd:
		return "snd"
	default:
		return fmt.Sprintf("ev%d", k)
	}
}

// Event is one step of a node's history. For EvIns/EvDel, Tuple is the
// affected tuple; MaybeRule and MaybeBody are set when the event is a
// 'maybe' rule firing (§3.4) rather than a plain base-tuple change, and
// Replaces lists tuples whose disappearance (at the same instant) causally
// precedes this insertion (the paper's constraint extension: "if tuple δ
// replaces tuple γ, the explanation of δ's appearance should include the
// disappearance of γ"). For EvRcv/EvSnd, Msg is the message; AckID is set
// instead of Msg when the event is an acknowledgment.
type Event struct {
	Kind      EventKind
	Node      NodeID
	Time      Time
	Tuple     Tuple
	MaybeRule string
	MaybeBody []Tuple
	Replaces  []Tuple
	Msg       *Message
	AckID     *MessageID
	AckTime   Time // for acks: the acknowledging node's timestamp t_y (§5.4)
	// SameBatch marks the second and later receives expanded from one
	// envelope: the batch is a single input, so the GCA must not flag the
	// node's pending outputs between them.
	SameBatch bool
}

// IsAck reports whether the event is an acknowledgment send or receipt.
func (e Event) IsAck() bool { return e.AckID != nil }

func (e Event) String() string {
	switch e.Kind {
	case EvIns, EvDel:
		return fmt.Sprintf("%s(%s, %s, %v)", e.Kind, e.Node, e.Tuple, e.Time)
	default:
		return fmt.Sprintf("%s(%s, %s, %v)", e.Kind, e.Node, e.Msg, e.Time)
	}
}

// OutputKind discriminates state-machine outputs.
type OutputKind uint8

// Output kinds.
const (
	OutDerive   OutputKind = iota // der(τ): one derivation of τ came into existence
	OutUnderive                   // und(τ): one derivation of τ ceased
	OutSend                       // snd(m): the node must transmit m
)

// Output is one state-machine output. For OutDerive/OutUnderive, Rule names
// the derivation rule, Body lists the body tuples of the firing, and
// First/Last report the reference-count transition: First is true when this
// derivation made the tuple appear (count 0→1), Last when the underivation
// made it disappear (count 1→0). The graph-construction algorithm creates
// appear/disappear vertices only on those transitions (§3.2, Figure 2 shows
// one EXIST vertex fed by two DERIVE vertices).
type Output struct {
	Kind     OutputKind
	Tuple    Tuple
	Rule     string
	Body     []Tuple
	Replaces []Tuple
	First    bool
	Last     bool
	Msg      *Message
}

func (o Output) String() string {
	switch o.Kind {
	case OutDerive:
		return fmt.Sprintf("der(%s via %s)", o.Tuple, o.Rule)
	case OutUnderive:
		return fmt.Sprintf("und(%s via %s)", o.Tuple, o.Rule)
	case OutSend:
		return fmt.Sprintf("snd(%s)", o.Msg)
	default:
		return fmt.Sprintf("out%d", o.Kind)
	}
}

// Belief names one remote node whose +τ notification supports a tuple.
type Belief struct {
	Origin NodeID
	Since  Time
}

// ExtantTuple describes one tuple a node currently holds, for checkpoints
// (§5.6) and for seeding replay: the tuple, when it appeared, whether it
// exists locally (vs. only being believed), and who it is believed from.
type ExtantTuple struct {
	Tuple    Tuple
	Appeared Time
	Local    bool
	Believed []Belief
}

// StateDumper is implemented by machines that can enumerate their extant
// tuples; the graph recorder needs it to write checkpoints.
type StateDumper interface {
	DumpExtants() []ExtantTuple
}

// Machine is the deterministic per-node state machine Ai of Appendix A.2.
// Inputs are EvIns/EvDel/EvRcv events; outputs are derivations,
// underivations, and message sends. Implementations must be deterministic:
// the same event sequence must always produce the same output sequence
// (§5.2, assumption 6). Snapshot/Restore support checkpointing (§5.6).
type Machine interface {
	// Step feeds one input event and returns the outputs it provokes, in a
	// deterministic order.
	Step(ev Event) []Output
	// Snapshot returns an opaque, canonical encoding of the machine's state.
	Snapshot() []byte
	// Restore replaces the machine's state with a snapshot.
	Restore(snapshot []byte) error
}

// MachineFactory creates a fresh machine for a node; replay uses it to
// re-execute a log from scratch.
type MachineFactory func(self NodeID) Machine
