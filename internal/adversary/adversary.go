// Package adversary is a first-class Byzantine-behavior injection framework
// for the SNP threat model (§2, §4): structured, composable node behaviors —
// log tampering and truncation, equivocation, message suppression and
// forgery, false derivations, replayed and withheld acknowledgments,
// signature stripping, audit refusal — installable per node through the
// core fault hooks without forking any honest code path.
//
// The package also carries the detection-guarantee conformance harness
// (conformance.go): for every behavior × application × seed it asserts the
// SNP invariant of §4.2 — the querier either surfaces evidence implicating a
// compromised node (and provable evidence never implicates an honest one),
// or the honest nodes' provenance answers are bit-identical to the
// adversary-free run.
package adversary

import (
	"slices"

	"repro/internal/core"
	"repro/internal/seclog"
	"repro/internal/types"
)

// Behavior is one named Byzantine behavior. Install arms it on a node by
// chaining onto the node's fault hooks; behaviors compose (several can be
// installed on one node) because each wraps whatever hook was there before.
// A Behavior instance may carry per-node state (e.g. a fired-once flag), so
// install a fresh instance per node.
type Behavior interface {
	Name() string
	Install(n *core.Node)
}

// Class describes how a behavior is expected to surface under audits,
// matching the paper's guarantee tiers (§4.2).
type Class uint8

// Behavior classes.
const (
	// Provable behaviors yield hard evidence: an audit failure or a red
	// vertex naming the compromised node (detection, Theorem 6).
	Provable Class = iota
	// Traceable behaviors cannot be pinned on one node (the paper's
	// "faulty or unreachable" cases): they leave leads — missing-ack
	// reports, yellow vertices, refused retrieves — that implicate the
	// compromised node's exchanges without proving which endpoint lied.
	Traceable
	// Benign behaviors must not perturb honest nodes at all: every honest
	// provenance answer stays bit-identical to the adversary-free run.
	Benign
)

func (c Class) String() string {
	switch c {
	case Provable:
		return "provable"
	case Traceable:
		return "traceable"
	case Benign:
		return "benign"
	default:
		return "class?"
	}
}

// Profile pairs a behavior constructor with its expected detection class;
// the catalog of profiles is what the conformance suite iterates.
type Profile struct {
	Name  string
	Class Class
	New   func() Behavior
}

// On returns the plan arming a fresh instance of the behavior on each node.
func (p Profile) On(nodes []types.NodeID) Plan {
	plan := Plan{}
	for _, id := range nodes {
		plan[id] = []Behavior{p.New()}
	}
	return plan
}

// Catalog returns every behavior in the library, one profile per threat in
// the §2 model, in a fixed order.
func Catalog() []Profile {
	return []Profile{
		{"suppress", Provable, func() Behavior { return Suppress(nil) }},
		{"forge", Provable, func() Behavior { return Forge() }},
		{"equivocate", Provable, func() Behavior { return Equivocate() }},
		{"tamper-log", Provable, func() Behavior { return TamperLog() }},
		{"truncate-log", Provable, func() Behavior { return TruncateLog() }},
		{"strip-sig", Traceable, func() Behavior { return StripSignatures() }},
		{"withhold-acks", Traceable, func() Behavior { return WithholdAcks() }},
		{"replay-acks", Traceable, func() Behavior { return ReplayAcks() }},
		{"refuse-audit", Traceable, func() Behavior { return RefuseAudits() }},
		{"dormant", Benign, func() Behavior { return Dormant() }},
	}
}

// ProfileByName returns the catalog entry with the given name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Plan maps compromised nodes to the behaviors to arm on them.
type Plan map[types.NodeID][]Behavior

// Hook adapts the plan to simnet.Config.OnNode / eval.Options.OnNode: every
// node the deployment creates is checked against the plan and armed at
// creation time, before any event runs. It is the one arming path; a node
// compromised mid-run is a timeline action that installs the behavior on
// the node it is handed.
func (p Plan) Hook() func(*core.Node) {
	return func(n *core.Node) {
		for _, b := range p[n.ID] {
			b.Install(n)
		}
	}
}

// TamperOutputs builds a bespoke behavior over the machine-output hook: f
// rewrites the outputs of every step, composing with whatever else is
// installed. It is the escape hatch for application-specific attacks
// (injecting one particular bogus route, say) that still go through the one
// injection path the framework provides.
func TamperOutputs(name string, f func(ev types.Event, outs []types.Output) []types.Output) Behavior {
	return &custom{name: name, install: func(n *core.Node) { chainTamper(n, f) }}
}

type custom struct {
	name    string
	install func(*core.Node)
}

func (c *custom) Name() string         { return c.name }
func (c *custom) Install(n *core.Node) { c.install(n) }

// chainPacket wraps the node's TamperPacket hook with f, preserving any
// hook already installed (behavior composition).
func chainPacket(n *core.Node, f func(dst types.NodeID, pkt *core.Packet) []*core.Packet) {
	prev := n.TamperPacket
	n.TamperPacket = func(dst types.NodeID, pkt *core.Packet) []*core.Packet {
		if prev == nil {
			return f(dst, pkt)
		}
		var out []*core.Packet
		for _, p := range prev(dst, pkt) {
			if p != nil {
				out = append(out, f(dst, p)...)
			}
		}
		return out
	}
}

// chainTamper wraps the node's machine-output Tamper hook.
func chainTamper(n *core.Node, f func(ev types.Event, outs []types.Output) []types.Output) {
	prev := n.Tamper
	n.Tamper = func(ev types.Event, outs []types.Output) []types.Output {
		if prev != nil {
			outs = prev(ev, outs)
		}
		return f(ev, outs)
	}
}

// chainRetrieve wraps the node's TamperRetrieve hook.
func chainRetrieve(n *core.Node, f func(req core.RetrieveRequest, resp *core.RetrieveResponse) (*core.RetrieveResponse, error)) {
	prev := n.TamperRetrieve
	n.TamperRetrieve = func(req core.RetrieveRequest, resp *core.RetrieveResponse) (*core.RetrieveResponse, error) {
		if prev != nil {
			var err error
			if resp, err = prev(req, resp); err != nil {
				return nil, err
			}
		}
		return f(req, resp)
	}
}

// MutateTuple derives a plausible-but-false variant of a tuple: the same
// relation and arity (so every application's machine accepts it as input)
// with one non-location argument perturbed. It is the generic payload used
// by forgery and equivocation behaviors across applications.
func MutateTuple(t types.Tuple) types.Tuple {
	args := append([]types.Value(nil), t.Args...)
	for i := len(args) - 1; i >= 1; i-- {
		switch args[i].Kind {
		case types.KindInt:
			args[i] = types.I(args[i].Int + 7777)
			return types.MakeTuple(t.Rel, args...)
		case types.KindString:
			args[i] = types.S(args[i].Str + "~forged")
			return types.MakeTuple(t.Rel, args...)
		}
	}
	// Only node-valued (routing) arguments: perturbing them would change
	// where the tuple lives, so mark the relation instead. Deterministic
	// machines simply never derive the marked relation.
	return types.MakeTuple(t.Rel+"~forged", args...)
}

// ---------------------------------------------------------------------------
// Provable behaviors.

// Suppress drops matching machine-output messages before they are logged or
// sent (passive evasion, §7.3's suppression scenario). A nil matcher
// suppresses every send to the destination of the node's first outgoing
// message: a deterministic, app-independent choice of what to hide. Replay
// of the node's own log exposes the machine outputs that were never
// transmitted: red send vertices.
func Suppress(match func(types.Message) bool) Behavior {
	if match == nil {
		var victim types.NodeID
		match = func(m types.Message) bool {
			if victim == "" {
				victim = m.Dst
			}
			return m.Dst == victim
		}
	}
	return TamperOutputs("suppress", func(_ types.Event, outs []types.Output) []types.Output {
		return slices.DeleteFunc(outs, func(o types.Output) bool {
			return o.Kind == types.OutSend && match(*o.Msg)
		})
	})
}

type forge struct{ done bool }

// Forge injects one false derivation: the node claims (and ships) a tuple
// its machine never derived, with no valid support. Audit replay of the
// node's log cannot reproduce the send, so the snd entry turns red
// (completeness, Theorem 6; §7.3's fabrication scenario).
func Forge() Behavior { return &forge{} }

func (b *forge) Name() string { return "forge" }

func (b *forge) Install(n *core.Node) {
	chainTamper(n, func(ev types.Event, outs []types.Output) []types.Output {
		if b.done {
			return outs
		}
		for _, o := range outs {
			if o.Kind != types.OutSend {
				continue
			}
			b.done = true
			m := *o.Msg
			m.Tuple = MutateTuple(m.Tuple)
			m.Seq += 1 << 20 // a sequence number the machine never assigned
			return append(outs, types.Output{Kind: types.OutSend, Msg: &m})
		}
		return outs
	})
}

type equivocate struct{ done bool }

// Equivocate forks the node's log at its next outgoing envelope: the victim
// receives a properly signed envelope whose content (and therefore chain
// hash) differs from the entry the node actually logged at that position —
// divergent commitments to different observers. The §5.5 consistency
// machinery cross-checks the victim's implied commitment against the
// presented chain and records an equivocation failure.
func Equivocate() Behavior { return &equivocate{} }

func (b *equivocate) Name() string { return "equivocate" }

func (b *equivocate) Install(n *core.Node) {
	suite, stats := n.Suite(), n.Stats
	chainPacket(n, func(dst types.NodeID, pkt *core.Packet) []*core.Packet {
		if b.done || pkt.Kind != core.PktEnvelope || len(pkt.Envelope.Msgs) == 0 {
			return []*core.Packet{pkt}
		}
		env := *pkt.Envelope
		msgs := append([]types.Message(nil), env.Msgs...)
		msgs[0].Tuple = MutateTuple(msgs[0].Tuple)
		env.Msgs = msgs
		// Re-commit to the forked content exactly as the honest sender
		// committed to the real one: same position, same previous hash,
		// fresh signature over the forked chain head.
		snd := &seclog.Entry{T: env.T, Type: seclog.ESnd, Msgs: msgs}
		hx := seclog.ChainHash(suite, stats, env.PrevHash, snd)
		sig, err := n.Log.Sign(env.T, hx)
		if err != nil {
			return []*core.Packet{pkt}
		}
		env.Sig = sig
		b.done = true
		return []*core.Packet{{Kind: core.PktEnvelope, Envelope: &env}}
	})
}

type tamperLog struct{}

// TamperLog serves audits a doctored log: the first ins entry of every
// retrieved segment is rewritten (as if the node edited its history after
// the fact). The recomputed hash chain no longer matches the node's own
// authenticators — provable tampering (§5.4).
func TamperLog() Behavior { return tamperLog{} }

func (tamperLog) Name() string { return "tamper-log" }

func (tamperLog) Install(n *core.Node) {
	chainRetrieve(n, func(req core.RetrieveRequest, resp *core.RetrieveResponse) (*core.RetrieveResponse, error) {
		seg := *resp.Segment
		seg.Entries = append([]*seclog.Entry(nil), resp.Segment.Entries...)
		for i, e := range seg.Entries {
			if e.Type != seclog.EIns {
				continue
			}
			doctored := *e
			doctored.Tuple = MutateTuple(e.Tuple)
			seg.Entries[i] = &doctored
			break
		}
		return &core.RetrieveResponse{Segment: &seg, NewAuth: resp.NewAuth}, nil
	})
}

type truncateLog struct{}

// TruncateLog withholds the tail of every retrieved segment while still
// presenting evidence that covers it: the authenticator points beyond the
// served entries, which verification rejects (§5.4 — the node cannot
// produce a log matching its own commitments).
func TruncateLog() Behavior { return truncateLog{} }

func (truncateLog) Name() string { return "truncate-log" }

func (truncateLog) Install(n *core.Node) {
	chainRetrieve(n, func(req core.RetrieveRequest, resp *core.RetrieveResponse) (*core.RetrieveResponse, error) {
		seg := *resp.Segment
		if len(resp.Segment.Entries) > 1 {
			seg.Entries = append([]*seclog.Entry(nil), resp.Segment.Entries[:len(resp.Segment.Entries)-1]...)
		}
		// Keep the original (now out-of-range) authenticator: the node
		// pretends the history simply ends earlier.
		return &core.RetrieveResponse{Segment: &seg, NewAuth: resp.NewAuth}, nil
	})
}

// ---------------------------------------------------------------------------
// Traceable behaviors.

type stripSig struct{}

// StripSignatures corrupts the commitment signature on every outgoing
// envelope. Receivers reject the envelopes, so the traffic is effectively
// suppressed at the wire; the sender's own log stays consistent and it
// reports the missing acks itself, leaving yellow (unprovable) send
// vertices and maintainer leads rather than hard evidence.
func StripSignatures() Behavior { return stripSig{} }

func (stripSig) Name() string { return "strip-sig" }

func (stripSig) Install(n *core.Node) {
	chainPacket(n, func(dst types.NodeID, pkt *core.Packet) []*core.Packet {
		if pkt.Kind != core.PktEnvelope {
			return []*core.Packet{pkt}
		}
		env := *pkt.Envelope
		env.Sig = append([]byte(nil), env.Sig...)
		if len(env.Sig) > 0 {
			env.Sig[0] ^= 0xFF
		}
		return []*core.Packet{{Kind: core.PktEnvelope, Envelope: &env}}
	})
}

type withholdAcks struct{}

// WithholdAcks receives and logs envelopes normally but never transmits the
// acknowledgments. Honest senders retransmit, then report the missing acks
// (§5.4), so the loss cannot be misattributed: the leads name the exchange
// with the compromised receiver.
func WithholdAcks() Behavior { return withholdAcks{} }

func (withholdAcks) Name() string { return "withhold-acks" }

func (withholdAcks) Install(n *core.Node) {
	chainPacket(n, func(dst types.NodeID, pkt *core.Packet) []*core.Packet {
		if pkt.Kind == core.PktAck {
			return nil
		}
		return []*core.Packet{pkt}
	})
}

type replayAcks struct{ stale *core.Packet }

// ReplayAcks answers the first envelope honestly, then replays that first
// acknowledgment in place of every later one. Honest senders reject the
// stale ack (it references an already-acknowledged exchange), retransmit,
// and report the missing acknowledgments.
func ReplayAcks() Behavior { return &replayAcks{} }

func (b *replayAcks) Name() string { return "replay-acks" }

func (b *replayAcks) Install(n *core.Node) {
	chainPacket(n, func(dst types.NodeID, pkt *core.Packet) []*core.Packet {
		if pkt.Kind != core.PktAck {
			return []*core.Packet{pkt}
		}
		if b.stale == nil {
			b.stale = pkt
			return []*core.Packet{pkt}
		}
		return []*core.Packet{b.stale}
	})
}

type refuseAudits struct{}

// RefuseAudits makes the node ignore every retrieve request and decline to
// issue authenticators: the §4.2 "unavailable" case. Its vertices stay
// yellow and the querier records which node did not answer.
func RefuseAudits() Behavior { return refuseAudits{} }

func (refuseAudits) Name() string { return "refuse-audit" }

func (refuseAudits) Install(n *core.Node) { n.RefuseAudit = true }

// ---------------------------------------------------------------------------
// Benign reference behavior.

type dormant struct{}

// Dormant installs every hook but never fires any of them: the compromised
// node behaves exactly like an honest one. It pins the conformance
// harness's other branch — with no misbehavior, every honest provenance
// answer must be bit-identical to the adversary-free run (and proves the
// hooks themselves perturb nothing).
func Dormant() Behavior { return dormant{} }

func (dormant) Name() string { return "dormant" }

func (dormant) Install(n *core.Node) {
	chainTamper(n, func(ev types.Event, outs []types.Output) []types.Output { return outs })
	chainPacket(n, func(dst types.NodeID, pkt *core.Packet) []*core.Packet { return []*core.Packet{pkt} })
	chainRetrieve(n, func(req core.RetrieveRequest, resp *core.RetrieveResponse) (*core.RetrieveResponse, error) {
		return resp, nil
	})
}
