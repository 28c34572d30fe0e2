// Package chord is a declarative implementation of the Chord distributed
// hash table in the style of RapidNet/P2's NDlog Chord — the paper's first
// example application (§6.1). Provenance is inferred automatically from
// rule evaluation (extraction method #1 of §5.3).
//
// The rule set implements join via lookup, successor stabilization with
// notify, finger fixing via lookups, keep-alive pings, and application
// lookups. Routing uses the classic closest-preceding-finger step,
// expressed as a min-aggregated event rule (the P2 idiom).
package chord

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/types"
	"repro/internal/workload"
)

// Bits is the identifier ring width (m): IDs live in [0, 2^Bits).
const Bits = 16

// RingSize is 2^Bits.
const RingSize = int64(1) << Bits

// Event IDs multiplex lookup responses: join, finger fixes (the finger
// index), and application lookups (offset by LookupEIDBase).
const (
	JoinEID       = int64(-1)
	LookupEIDBase = int64(10000)
)

// RingID maps a node name onto the identifier ring.
func RingID(id types.NodeID) int64 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int64(h.Sum32()) % RingSize
}

// ringDist is the clockwise distance from a to b.
func ringDist(a, b int64) int64 {
	d := (b - a) % RingSize
	if d < 0 {
		d += RingSize
	}
	return d
}

// Program compiles the Chord rule set.
func Program() *dlog.Program {
	p := dlog.NewProgram()
	// Persistent state.
	p.Relation("node", 2, false)   // node(@N, ID)
	p.Relation("succ", 3, false)   // succ(@N, S, SID)
	p.Relation("pred", 3, false)   // pred(@N, P, PID)
	p.Relation("finger", 4, false) // finger(@N, I, F, FID)
	p.Relation("result", 5, false) // result(@N, K, Owner, OID, EID)
	// Events.
	p.Relation("joinEv", 2, true)    // joinEv(@N, Landmark)
	p.Relation("lookup", 4, true)    // lookup(@M, K, Requester, EID)
	p.Relation("lookupRes", 5, true) // lookupRes(@R, K, Owner, OID, EID)
	p.Relation("stabEv", 1, true)    // stabEv(@N)
	p.Relation("getPred", 2, true)   // getPred(@S, Asker)
	p.Relation("predReply", 3, true) // predReply(@N, P, PID)
	p.Relation("notify", 3, true)    // notify(@S, N, NID)
	p.Relation("fixEv", 2, true)     // fixEv(@N, I)
	p.Relation("kaEv", 1, true)      // kaEv(@N)
	p.Relation("ping", 2, true)      // ping(@S, N)
	p.Relation("pong", 2, true)      // pong(@N, S)
	p.Relation("lookupEv", 3, true)  // lookupEv(@N, K, EID)

	// Ring-arithmetic builtins. inHalfOpen(K,A,B): K ∈ (A,B] on the ring;
	// a degenerate interval (A==B) covers the whole ring (single-node
	// case). inOpen(K,A,B): K ∈ (A,B).
	boolVal := func(v bool) types.Value {
		if v {
			return types.I(1)
		}
		return types.I(0)
	}
	p.MustFunc("inHalfOpen", func(a []types.Value) types.Value {
		k, lo, hi := a[0].Int, a[1].Int, a[2].Int
		if lo == hi {
			return boolVal(true)
		}
		return boolVal(ringDist(lo, k) <= ringDist(lo, hi) && k != lo)
	})
	p.MustFunc("inOpen", func(a []types.Value) types.Value {
		k, lo, hi := a[0].Int, a[1].Int, a[2].Int
		if lo == hi {
			return boolVal(k != lo)
		}
		return boolVal(ringDist(lo, k) < ringDist(lo, hi) && k != lo)
	})
	p.MustFunc("ringDist", func(a []types.Value) types.Value {
		return types.I(ringDist(a[0].Int, a[1].Int))
	})
	p.MustFunc("fingerTarget", func(a []types.Value) types.Value {
		return types.I((a[0].Int + (int64(1) << uint(a[1].Int))) % RingSize)
	})

	V, A, C := dlog.V, dlog.A, dlog.C

	// J1: joining node asks the landmark to find its successor.
	p.MustAddRule(dlog.Rule{
		Name: "J1", Action: dlog.ActEvent,
		Head: A("lookup", V("L"), V("NID"), V("N"), C(types.I(JoinEID))),
		Body: []dlog.Atom{
			A("joinEv", V("N"), V("L")),
			A("node", V("N"), V("NID")),
		},
	})
	// J2: the join response installs the successor.
	p.MustAddRule(dlog.Rule{
		Name: "J2", Action: dlog.ActStore, ReplaceKey: 1,
		Head: A("succ", V("N"), V("O"), V("OID")),
		Body: []dlog.Atom{
			A("lookupRes", V("N"), V("K"), V("O"), V("OID"), C(types.I(JoinEID))),
		},
	})
	// L1: answer a lookup the local successor owns: K ∈ (MID, SID].
	p.MustAddRule(dlog.Rule{
		Name: "L1", Action: dlog.ActEvent,
		Head: A("lookupRes", V("R"), V("K"), V("S"), V("SID"), V("E")),
		Body: []dlog.Atom{
			A("lookup", V("M"), V("K"), V("R"), V("E")),
			A("node", V("M"), V("MID")),
			A("succ", V("M"), V("S"), V("SID")),
		},
		Conds: []dlog.Cond{{Fn: "inHalfOpen", Args: []dlog.Term{V("K"), V("MID"), V("SID")}}},
	})
	// L2: otherwise forward to the closest preceding finger (min ring
	// distance from the finger to the key). Finger 0 always mirrors the
	// successor (rule F0), so a candidate always exists.
	p.MustAddRule(dlog.Rule{
		Name: "L2", Action: dlog.ActEvent,
		Head: A("lookup", V("F"), V("K"), V("R"), V("E")),
		Body: []dlog.Atom{
			A("lookup", V("M"), V("K"), V("R"), V("E")),
			A("node", V("M"), V("MID")),
			A("succ", V("M"), V("S"), V("SID")),
			A("finger", V("M"), V("I"), V("F"), V("FID")),
		},
		Conds: []dlog.Cond{
			{Fn: "inHalfOpen", Args: []dlog.Term{V("K"), V("MID"), V("SID")}, Negate: true},
			{Fn: "inOpen", Args: []dlog.Term{V("FID"), V("MID"), V("K")}},
		},
		Assigns: []dlog.Assign{{Var: "D", Fn: "ringDist", Args: []dlog.Term{V("FID"), V("K")}}},
		Agg:     &dlog.Agg{Over: "D", GroupBy: []string{"M", "K", "R", "E"}},
	})
	// F0: finger 0 mirrors the successor.
	p.MustAddRule(dlog.Rule{
		Name: "F0",
		Head: A("finger", V("N"), C(types.I(0)), V("S"), V("SID")),
		Body: []dlog.Atom{A("succ", V("N"), V("S"), V("SID"))},
	})
	// S1/S2/S3: stabilization — ask the successor for its predecessor;
	// adopt it if it sits between us and the successor; then notify.
	p.MustAddRule(dlog.Rule{
		Name: "S1", Action: dlog.ActEvent,
		Head: A("getPred", V("S"), V("N")),
		Body: []dlog.Atom{
			A("stabEv", V("N")),
			A("succ", V("N"), V("S"), V("SID")),
		},
	})
	p.MustAddRule(dlog.Rule{
		Name: "S2", Action: dlog.ActEvent,
		Head: A("predReply", V("N"), V("P"), V("PID")),
		Body: []dlog.Atom{
			A("getPred", V("S"), V("N")),
			A("pred", V("S"), V("P"), V("PID")),
		},
	})
	p.MustAddRule(dlog.Rule{
		Name: "S3", Action: dlog.ActStore, ReplaceKey: 1,
		Head: A("succ", V("N"), V("P"), V("PID")),
		Body: []dlog.Atom{
			A("predReply", V("N"), V("P"), V("PID")),
			A("node", V("N"), V("NID")),
			A("succ", V("N"), V("S"), V("SID")),
		},
		Conds: []dlog.Cond{
			{Fn: "inOpen", Args: []dlog.Term{V("PID"), V("NID"), V("SID")}},
			{Fn: "ne", Args: []dlog.Term{V("P"), V("N")}},
		},
	})
	p.MustAddRule(dlog.Rule{
		Name: "S4", Action: dlog.ActEvent,
		Head: A("notify", V("S"), V("N"), V("NID")),
		Body: []dlog.Atom{
			A("stabEv", V("N")),
			A("succ", V("N"), V("S"), V("SID")),
			A("node", V("N"), V("NID")),
		},
		Conds: []dlog.Cond{{Fn: "ne", Args: []dlog.Term{V("S"), V("N")}}},
	})
	// N1: adopt a notifier as predecessor if it improves on the current
	// one; N2: adopt unconditionally when the current predecessor is
	// ourselves (the bootstrap placeholder).
	p.MustAddRule(dlog.Rule{
		Name: "N1", Action: dlog.ActStore, ReplaceKey: 1,
		Head: A("pred", V("M"), V("N"), V("NID")),
		Body: []dlog.Atom{
			A("notify", V("M"), V("N"), V("NID")),
			A("pred", V("M"), V("P"), V("PID")),
			A("node", V("M"), V("MID")),
		},
		Conds: []dlog.Cond{
			{Fn: "inOpen", Args: []dlog.Term{V("NID"), V("PID"), V("MID")}},
			{Fn: "ne", Args: []dlog.Term{V("P"), V("M")}},
		},
	})
	p.MustAddRule(dlog.Rule{
		Name: "N2", Action: dlog.ActStore, ReplaceKey: 1,
		Head: A("pred", V("M"), V("N"), V("NID")),
		Body: []dlog.Atom{
			A("notify", V("M"), V("N"), V("NID")),
			A("pred", V("M"), V("M"), V("MID")),
		},
	})
	// FX1/FX2: finger fixing — look up the finger target; install the
	// owner under the finger index carried in the event ID.
	p.MustAddRule(dlog.Rule{
		Name: "FX1", Action: dlog.ActEvent,
		Head: A("lookup", V("N"), V("T"), V("N"), V("I")),
		Body: []dlog.Atom{
			A("fixEv", V("N"), V("I")),
			A("node", V("N"), V("NID")),
		},
		Assigns: []dlog.Assign{{Var: "T", Fn: "fingerTarget", Args: []dlog.Term{V("NID"), V("I")}}},
	})
	p.MustAddRule(dlog.Rule{
		Name: "FX2", Action: dlog.ActStore, ReplaceKey: 2,
		Head: A("finger", V("N"), V("I"), V("O"), V("OID")),
		Body: []dlog.Atom{
			A("lookupRes", V("N"), V("K"), V("O"), V("OID"), V("I")),
		},
		Conds: []dlog.Cond{
			{Fn: "ge", Args: []dlog.Term{V("I"), C(types.I(1))}},
			{Fn: "lt", Args: []dlog.Term{V("I"), C(types.I(Bits))}},
		},
	})
	// KA1/KA2: keep-alive ping/pong with the successor.
	p.MustAddRule(dlog.Rule{
		Name: "KA1", Action: dlog.ActEvent,
		Head: A("ping", V("S"), V("N")),
		Body: []dlog.Atom{
			A("kaEv", V("N")),
			A("succ", V("N"), V("S"), V("SID")),
		},
		Conds: []dlog.Cond{{Fn: "ne", Args: []dlog.Term{V("S"), V("N")}}},
	})
	p.MustAddRule(dlog.Rule{
		Name: "KA2", Action: dlog.ActEvent,
		Head: A("pong", V("N"), V("S")),
		Body: []dlog.Atom{A("ping", V("S"), V("N"))},
	})
	// Q1/Q2: application lookups and their stored results (the
	// Chord-Lookup query of §7.2 asks for the provenance of a result).
	p.MustAddRule(dlog.Rule{
		Name: "Q1", Action: dlog.ActEvent,
		Head: A("lookup", V("N"), V("K"), V("N"), V("E")),
		Body: []dlog.Atom{A("lookupEv", V("N"), V("K"), V("E"))},
	})
	p.MustAddRule(dlog.Rule{
		Name: "Q2", Action: dlog.ActStore, ReplaceKey: 5,
		Head: A("result", V("N"), V("K"), V("O"), V("OID"), V("E")),
		Body: []dlog.Atom{
			A("lookupRes", V("N"), V("K"), V("O"), V("OID"), V("E")),
		},
		Conds: []dlog.Cond{{Fn: "ge", Args: []dlog.Term{V("E"), C(types.I(LookupEIDBase))}}},
	})
	return p
}

// Factory returns the replay machine factory for Chord.
func Factory() types.MachineFactory { return dlog.Factory(Program()) }

// NodeName returns the canonical name of the i-th Chord node.
func NodeName(i int) types.NodeID { return types.NodeID(fmt.Sprintf("chord%03d", i)) }

// Params configures a Chord deployment (§7.1: stabilization every 50 s,
// finger fixing every 50 s, keep-alive every 10 s).
type Params struct {
	N              int
	StabilizeEvery types.Time
	FingerEvery    types.Time
	KeepAliveEvery types.Time
	JoinSpread     types.Time // protocol joiners join over this window
	Duration       types.Time
	Lookups        int // application lookups issued over the run
	// ProtocolJoins is how many nodes join through the lookup-based join
	// protocol; the rest start with initialized successor/predecessor
	// pointers (landmark-only joins converge in O(N) stabilization rounds,
	// which would dwarf a 15-minute run at N=250).
	ProtocolJoins int
}

// DefaultParams mirrors the paper's Chord configuration.
func DefaultParams(n int) Params {
	return Params{
		N:              n,
		StabilizeEvery: 50 * types.Second,
		FingerEvery:    50 * types.Second,
		KeepAliveEvery: 10 * types.Second,
		JoinSpread:     30 * types.Second,
		Duration:       15 * types.Minute,
		Lookups:        n,
		ProtocolJoins:  1,
	}
}

// New is the Chord workload under p: joins, the three maintenance timers
// and the application lookups, each on the node it concerns. Nodes are
// NodeName(0..N-1).
func New(p Params) *workload.Workload {
	w := &workload.Workload{Name: "chord", Factory: Factory(), Horizon: p.Duration}
	ids := make(map[types.NodeID]int64, p.N)
	used := make(map[int64]bool, p.N)
	for i := 0; i < p.N; i++ {
		name := NodeName(i)
		w.Nodes = append(w.Nodes, name)
		w.KeySeeds = append(w.KeySeeds, int64(i+1))
		id := RingID(name)
		for used[id] { // resolve ring collisions deterministically
			id = (id + 1) % RingSize
		}
		used[id] = true
		ids[name] = id
	}
	names := w.Nodes
	// Ring order by identifier.
	ring := append([]types.NodeID(nil), names...)
	sort.Slice(ring, func(i, j int) bool { return ids[ring[i]] < ids[ring[j]] })
	protocolJoiner := make(map[types.NodeID]bool)
	for i := 0; i < p.ProtocolJoins && i < len(names)-1; i++ {
		protocolJoiner[names[len(names)-1-i]] = true
	}
	landmark := names[0]
	pos := make(map[types.NodeID]int, len(ring))
	for i, name := range ring {
		pos[name] = i
	}
	// ringNeighbor walks the ring skipping protocol joiners (they are not
	// part of the initial ring).
	ringNeighbor := func(name types.NodeID, dir int) types.NodeID {
		i := pos[name]
		for {
			i = (i + dir + len(ring)) % len(ring)
			if !protocolJoiner[ring[i]] {
				return ring[i]
			}
		}
	}
	joined := 0
	for _, name := range names {
		id := ids[name]
		nodeTuple := types.MakeTuple("node", types.N(name), types.I(id))
		if protocolJoiner[name] {
			joined++
			joinAt := types.Time(int64(joined)) * p.JoinSpread / types.Time(p.ProtocolJoins+1)
			w.At(name, joinAt, func(n *core.Node) {
				n.InsertBase(nodeTuple)
				n.InsertBase(types.MakeTuple("pred", types.N(name), types.N(name), types.I(id)))
				n.InsertEvent(types.MakeTuple("joinEv", types.N(name), types.N(landmark)))
			})
			continue
		}
		s := ringNeighbor(name, +1)
		pr := ringNeighbor(name, -1)
		if s == name { // single initialized node
			s, pr = name, name
		}
		sid, pid := ids[s], ids[pr]
		w.At(name, 0, func(n *core.Node) {
			n.InsertBase(nodeTuple)
			n.InsertBase(types.MakeTuple("succ", types.N(name), types.N(s), types.I(sid)))
			n.InsertBase(types.MakeTuple("pred", types.N(name), types.N(pr), types.I(pid)))
		})
	}
	// Timers, staggered per node to avoid synchronized bursts.
	for i, name := range names {
		offset := types.Time(int64(i)) * types.Second / types.Time(p.N)
		w.Every(name, p.JoinSpread+offset, p.StabilizeEvery, p.Duration, func(n *core.Node) {
			n.InsertEvent(types.MakeTuple("stabEv", types.N(name)))
		})
		w.Every(name, p.JoinSpread+offset+p.FingerEvery/4, p.FingerEvery, p.Duration, func(n *core.Node) {
			for fi := int64(1); fi < Bits; fi += 2 {
				n.InsertEvent(types.MakeTuple("fixEv", types.N(name), types.I(fi)))
			}
		})
		w.Every(name, p.JoinSpread+offset+p.KeepAliveEvery/2, p.KeepAliveEvery, p.Duration, func(n *core.Node) {
			n.InsertEvent(types.MakeTuple("kaEv", types.N(name)))
		})
	}
	// Application lookups spread over the second half of the run.
	start := p.Duration / 2
	for li := 0; li < p.Lookups; li++ {
		origin := names[li%len(names)]
		key := RingID(types.NodeID(fmt.Sprintf("key-%d", li)))
		at := start + types.Time(int64(li))*(p.Duration/2-types.Second)/types.Time(p.Lookups)
		w.At(origin, at, func(n *core.Node) {
			n.InsertEvent(types.MakeTuple("lookupEv",
				types.N(origin), types.I(key), types.I(LookupEIDBase+int64(li))))
		})
	}
	return w
}
