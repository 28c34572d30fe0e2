package dlog

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/types"
)

// minCostProgram builds the §3.3 MinCost protocol:
//
//	R1: cost(@X,Y,Y,K)      ← link(@X,Y,K)
//	R2: cost(@C,D,B,K1+K2)  ← link(@B,C,K1) ∧ bestCost(@B,D,K2)   (at B, shipped to C)
//	R3: bestCost(@X,Y,minK) ← cost(@X,Y,Z,K)
func minCostProgram() *Program {
	p := NewProgram()
	p.Relation("link", 3, false)
	p.Relation("cost", 4, false)
	p.Relation("bestCost", 3, false)
	p.MustAddRule(Rule{
		Name: "R1",
		Head: A("cost", V("X"), V("Y"), V("Y"), V("K")),
		Body: []Atom{A("link", V("X"), V("Y"), V("K"))},
	})
	p.MustAddRule(Rule{
		Name: "R2",
		Head: A("cost", V("C"), V("D"), V("B"), V("K")),
		Body: []Atom{
			A("link", V("B"), V("C"), V("K1")),
			A("bestCost", V("B"), V("D"), V("K2")),
		},
		Assigns: []Assign{{Var: "K", Fn: "add", Args: []Term{V("K1"), V("K2")}}},
		Conds:   []Cond{{Fn: "ne", Args: []Term{V("C"), V("D")}}},
	})
	p.MustAddRule(Rule{
		Name: "R3",
		Head: A("bestCost", V("X"), V("Y"), V("K")),
		Body: []Atom{A("cost", V("X"), V("Y"), V("Z"), V("K"))},
		Agg:  &Agg{Over: "K", GroupBy: []string{"X", "Y"}},
	})
	return p
}

func link(x, y types.NodeID, k int64) types.Tuple {
	return types.MakeTuple("link", types.N(x), types.N(y), types.I(k))
}

func bestCost(x, y types.NodeID, k int64) types.Tuple {
	return types.MakeTuple("bestCost", types.N(x), types.N(y), types.I(k))
}

func ins(node types.NodeID, t types.Time, tup types.Tuple) types.Event {
	return types.Event{Kind: types.EvIns, Node: node, Time: t, Tuple: tup}
}

func del(node types.NodeID, t types.Time, tup types.Tuple) types.Event {
	return types.Event{Kind: types.EvDel, Node: node, Time: t, Tuple: tup}
}

func rcv(node types.NodeID, t types.Time, msg *types.Message) types.Event {
	return types.Event{Kind: types.EvRcv, Node: node, Time: t, Msg: msg}
}

// stepAll feeds ev to m and returns outputs; messages destined to other
// machines are delivered immediately (zero-delay network), recursively.
func deliverAll(t *testing.T, machines map[types.NodeID]*Machine, ev types.Event) {
	t.Helper()
	m := machines[ev.Node]
	outs := m.Step(ev)
	for _, o := range outs {
		if o.Kind == types.OutSend {
			dst := machines[o.Msg.Dst]
			if dst == nil {
				t.Fatalf("message to unknown node %s", o.Msg.Dst)
			}
			deliverAll(t, machines, rcv(o.Msg.Dst, ev.Time, o.Msg))
		}
	}
}

func TestMinCostLocalDerivation(t *testing.T) {
	p := minCostProgram()
	m := NewMachine(p, "c")
	outs := m.Step(ins("c", 1, link("c", "d", 5)))
	// link(@c,d,5) → cost(@c,d,d,5) → bestCost(@c,d,5); cost(@d,c,5) is
	// NOT derived (R1 head is at X=c; R2 needs bestCost first).
	if !m.Lookup(types.MakeTuple("cost", types.N("c"), types.N("d"), types.N("d"), types.I(5))) {
		t.Error("cost(@c,d,d,5) not derived")
	}
	if !m.Lookup(bestCost("c", "d", 5)) {
		t.Error("bestCost(@c,d,5) not derived")
	}
	// No sends: the only R2 firing would advertise d's own route back to d,
	// which the C≠D condition suppresses.
	for _, o := range outs {
		if o.Kind == types.OutSend {
			t.Errorf("unexpected send %v", o)
		}
	}
}

// TestFigure2Derivations reproduces the §3.3 example: bestCost(@c,d,5) has
// two derivations, one via c's direct link and one via b.
func TestFigure2Derivations(t *testing.T) {
	p := minCostProgram()
	machines := map[types.NodeID]*Machine{
		"b": NewMachine(p, "b"),
		"c": NewMachine(p, "c"),
		"d": NewMachine(p, "d"),
	}
	// Figure 2 uses links b–d cost 3, b–c cost 2, c–d cost 5 (links are
	// symmetric: each endpoint knows its local link cost).
	deliverAll(t, machines, ins("b", 1, link("b", "d", 3)))
	deliverAll(t, machines, ins("d", 1, link("d", "b", 3)))
	deliverAll(t, machines, ins("b", 2, link("b", "c", 2)))
	deliverAll(t, machines, ins("c", 2, link("c", "b", 2)))
	deliverAll(t, machines, ins("c", 3, link("c", "d", 5)))
	deliverAll(t, machines, ins("d", 3, link("d", "c", 5)))

	c := machines["c"]
	if !c.Lookup(bestCost("c", "d", 5)) {
		t.Fatalf("bestCost(@c,d,5) missing; bestCost tuples: %v", slices.Collect(c.Tuples("bestCost")))
	}
	// cost(@c,d,d,5) via direct link and cost(@c,d,b,5) believed from b.
	if !c.Lookup(types.MakeTuple("cost", types.N("c"), types.N("d"), types.N("d"), types.I(5))) {
		t.Error("cost(@c,d,d,5) missing")
	}
	if !c.Lookup(types.MakeTuple("cost", types.N("c"), types.N("d"), types.N("b"), types.I(5))) {
		t.Error("cost(@c,d,b,5) (believed from b) missing")
	}
	// b's best cost to d is its direct link.
	if !machines["b"].Lookup(bestCost("b", "d", 3)) {
		t.Error("bestCost(@b,d,3) missing")
	}
}

func TestMinCostRetraction(t *testing.T) {
	p := minCostProgram()
	machines := map[types.NodeID]*Machine{
		"b": NewMachine(p, "b"),
		"c": NewMachine(p, "c"),
		"d": NewMachine(p, "d"),
	}
	deliverAll(t, machines, ins("b", 1, link("b", "d", 3)))
	deliverAll(t, machines, ins("b", 2, link("b", "c", 2)))
	deliverAll(t, machines, ins("c", 2, link("c", "b", 2)))
	c := machines["c"]
	if !c.Lookup(bestCost("c", "d", 5)) {
		t.Fatalf("bestCost(@c,d,5) missing before retraction")
	}
	// Remove b's link to c: b stops advertising to c, so c's only route to
	// d must vanish. (Deleting the b–d link instead would exhibit classic
	// distance-vector count-to-infinity, which MinCost does not prevent.)
	deliverAll(t, machines, del("b", 5, link("b", "c", 2)))
	if c.Lookup(bestCost("c", "d", 5)) {
		t.Error("bestCost(@c,d,5) survived retraction of b–c link")
	}
	for tup := range c.Tuples("bestCost") {
		if tup.Args[1] == types.N("d") {
			t.Errorf("stale route to d: %v", tup)
		}
	}
}

func TestMinAggregatePicksMinimum(t *testing.T) {
	p := minCostProgram()
	m := NewMachine(p, "c")
	m.Step(ins("c", 1, link("c", "d", 5)))
	if !m.Lookup(bestCost("c", "d", 5)) {
		t.Fatal("bestCost(@c,d,5) missing")
	}
	// A cheaper believed cost arrives: bestCost must switch to 4.
	cheap := types.MakeTuple("cost", types.N("c"), types.N("d"), types.N("e"), types.I(4))
	m.Step(rcv("c", 2, &types.Message{Src: "e", Dst: "c", Pol: types.PolAppear, Tuple: cheap, Seq: 1}))
	if m.Lookup(bestCost("c", "d", 5)) {
		t.Error("stale bestCost(@c,d,5) remains")
	}
	if !m.Lookup(bestCost("c", "d", 4)) {
		t.Error("bestCost(@c,d,4) missing")
	}
	// The belief is withdrawn: bestCost must fall back to 5.
	m.Step(rcv("c", 3, &types.Message{Src: "e", Dst: "c", Pol: types.PolDisappear, Tuple: cheap, Seq: 2}))
	if !m.Lookup(bestCost("c", "d", 5)) {
		t.Error("bestCost(@c,d,5) not restored after belief withdrawn")
	}
	if m.Lookup(bestCost("c", "d", 4)) {
		t.Error("bestCost(@c,d,4) survived belief withdrawal")
	}
}

func TestAggTieProducesTwoSupports(t *testing.T) {
	// Two paths of equal cost: one bestCost tuple with two derivations
	// (Figure 2's structure).
	p := minCostProgram()
	m := NewMachine(p, "c")
	m.Step(ins("c", 1, link("c", "d", 5)))
	tie := types.MakeTuple("cost", types.N("c"), types.N("d"), types.N("b"), types.I(5))
	outs := m.Step(rcv("c", 2, &types.Message{Src: "b", Dst: "c", Pol: types.PolAppear, Tuple: tie, Seq: 1}))
	derives := 0
	for _, o := range outs {
		if o.Kind == types.OutDerive && o.Tuple.Equal(bestCost("c", "d", 5)) {
			derives++
			if o.First {
				t.Error("second derivation of an extant tuple must have First=false")
			}
		}
	}
	if derives != 1 {
		t.Errorf("new bestCost derivations = %d, want 1", derives)
	}
	f := m.getFact(bestCost("c", "d", 5))
	if f == nil || len(f.supports) != 2 {
		t.Fatalf("bestCost supports = %v, want 2", f)
	}
}

func TestEventRuleAndStore(t *testing.T) {
	p := NewProgram()
	p.Relation("ping", 2, true)  // event: ping(@N, From)
	p.Relation("seen", 2, false) // stored: seen(@N, From)
	p.Relation("pong", 2, true)  // event: pong(@From, N)
	p.MustAddRule(Rule{
		Name:   "remember",
		Action: ActStore,
		Head:   A("seen", V("N"), V("F")),
		Body:   []Atom{A("ping", V("N"), V("F"))},
	})
	p.MustAddRule(Rule{
		Name:   "reply",
		Action: ActEvent,
		Head:   A("pong", V("F"), V("N")),
		Body:   []Atom{A("ping", V("N"), V("F"))},
	})
	m := NewMachine(p, "n1")
	ping := types.MakeTuple("ping", types.N("n1"), types.N("n2"))
	outs := m.Step(rcv("n1", 5, &types.Message{Src: "n2", Dst: "n1", Pol: types.PolBoth, Tuple: ping, Seq: 1}))

	if !m.Lookup(types.MakeTuple("seen", types.N("n1"), types.N("n2"))) {
		t.Error("store rule did not persist seen(@n1,n2)")
	}
	var pongSent bool
	for _, o := range outs {
		if o.Kind == types.OutSend && o.Msg.Tuple.Rel == "pong" {
			if o.Msg.Pol != types.PolBoth {
				t.Error("event ship must use PolBoth")
			}
			if o.Msg.Dst != "n2" {
				t.Errorf("pong sent to %s, want n2", o.Msg.Dst)
			}
			pongSent = true
		}
	}
	if !pongSent {
		t.Error("event rule did not ship pong")
	}
	// The stored fact must survive the event's retraction.
	outs = m.Step(ins("n1", 6, types.MakeTuple("unrelated?", types.N("n1"))))
	_ = outs
	if !m.Lookup(types.MakeTuple("seen", types.N("n1"), types.N("n2"))) {
		t.Error("stored fact vanished")
	}
}

func TestStoreReplace(t *testing.T) {
	p := NewProgram()
	p.Relation("update", 3, true) // update(@N, Key, Val)
	p.Relation("slot", 3, false)  // slot(@N, Key, Val)
	p.MustAddRule(Rule{
		Name:       "set",
		Action:     ActStore,
		Head:       A("slot", V("N"), V("K"), V("V")),
		Body:       []Atom{A("update", V("N"), V("K"), V("V"))},
		ReplaceKey: 2, // (N, Key) identifies the slot
	})
	m := NewMachine(p, "n1")
	up := func(k string, v int64) types.Tuple {
		return types.MakeTuple("update", types.N("n1"), types.S(k), types.I(v))
	}
	m.Step(ins("n1", 1, up("x", 1)))
	if !m.Lookup(types.MakeTuple("slot", types.N("n1"), types.S("x"), types.I(1))) {
		t.Fatal("slot not stored")
	}
	outs := m.Step(ins("n1", 2, up("x", 2)))
	if m.Lookup(types.MakeTuple("slot", types.N("n1"), types.S("x"), types.I(1))) {
		t.Error("old slot value survived replacement")
	}
	if !m.Lookup(types.MakeTuple("slot", types.N("n1"), types.S("x"), types.I(2))) {
		t.Error("new slot value missing")
	}
	// The derive output must carry the Replaces annotation (§3.4 edge).
	found := false
	for _, o := range outs {
		if o.Kind == types.OutDerive && o.Tuple.Rel == "slot" {
			if len(o.Replaces) == 1 && o.Replaces[0].Args[2].Int == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("replacement derive lacks Replaces annotation")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := minCostProgram()
	m1 := NewMachine(p, "c")
	m1.Step(ins("c", 1, link("c", "d", 5)))
	m1.Step(ins("c", 2, link("c", "b", 2)))
	cheap := types.MakeTuple("cost", types.N("c"), types.N("d"), types.N("b"), types.I(4))
	m1.Step(rcv("c", 3, &types.Message{Src: "b", Dst: "c", Pol: types.PolAppear, Tuple: cheap, Seq: 1}))

	snap := m1.Snapshot()
	m2 := NewMachine(p, "c")
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, m2.Snapshot()) {
		t.Fatal("snapshot is not a fixed point")
	}
	// The restored machine must behave identically: withdraw the belief and
	// compare outputs.
	ev := rcv("c", 9, &types.Message{Src: "b", Dst: "c", Pol: types.PolDisappear, Tuple: cheap, Seq: 2})
	o1 := m1.Step(ev)
	o2 := m2.Step(ev)
	if len(o1) != len(o2) {
		t.Fatalf("output lengths differ: %d vs %d\n%v\n%v", len(o1), len(o2), o1, o2)
	}
	for i := range o1 {
		if o1[i].String() != o2[i].String() {
			t.Errorf("output %d differs: %v vs %v", i, o1[i], o2[i])
		}
	}
	if !m2.Lookup(bestCost("c", "d", 5)) {
		t.Error("restored machine did not recompute aggregate")
	}
}

func TestDeterministicOutputs(t *testing.T) {
	// The same event sequence must produce byte-identical output sequences
	// (assumption 6 of §5.2; replay depends on it).
	run := func() string {
		p := minCostProgram()
		m := NewMachine(p, "c")
		s := ""
		events := []types.Event{
			ins("c", 1, link("c", "d", 5)),
			ins("c", 2, link("c", "b", 2)),
			rcv("c", 3, &types.Message{Src: "b", Dst: "c", Pol: types.PolAppear,
				Tuple: types.MakeTuple("cost", types.N("c"), types.N("d"), types.N("b"), types.I(4)), Seq: 1}),
			del("c", 4, link("c", "d", 5)),
		}
		for _, ev := range events {
			for _, o := range m.Step(ev) {
				s += o.String() + "\n"
			}
		}
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic outputs:\n%s\nvs\n%s", a, b)
	}
}

func TestExtants(t *testing.T) {
	p := minCostProgram()
	m := NewMachine(p, "c")
	m.Step(ins("c", 1, link("c", "d", 5)))
	cheap := types.MakeTuple("cost", types.N("c"), types.N("d"), types.N("b"), types.I(4))
	m.Step(rcv("c", 3, &types.Message{Src: "b", Dst: "c", Pol: types.PolAppear, Tuple: cheap, Seq: 1}))
	var localCount, believedCount int
	for _, e := range m.DumpExtants() {
		if e.Local {
			localCount++
		}
		for range e.Believed {
			believedCount++
		}
	}
	if believedCount != 1 {
		t.Errorf("believed extants = %d, want 1", believedCount)
	}
	if localCount < 3 { // link, cost(direct), bestCost at least
		t.Errorf("local extants = %d, want >= 3", localCount)
	}
}

func TestRuleValidation(t *testing.T) {
	p := NewProgram()
	p.Relation("a", 1, false)
	p.Relation("ev", 1, true)
	cases := []struct {
		name string
		rule Rule
	}{
		{"empty body", Rule{Name: "r", Head: A("a", V("X"))}},
		{"undeclared head", Rule{Name: "r", Head: A("zz", V("X")), Body: []Atom{A("a", V("X"))}}},
		{"undeclared body", Rule{Name: "r", Head: A("a", V("X")), Body: []Atom{A("zz", V("X"))}}},
		{"arity", Rule{Name: "r", Head: A("a", V("X"), V("Y")), Body: []Atom{A("a", V("X"))}}},
		{"unbound head var", Rule{Name: "r", Head: A("a", V("Y")), Body: []Atom{A("a", V("X"))}}},
		{"derive matching event", Rule{Name: "r", Head: A("a", V("X")), Body: []Atom{A("ev", V("X"))}}},
		{"event rule persistent head", Rule{Name: "r", Action: ActEvent, Head: A("a", V("X")), Body: []Atom{A("a", V("X"))}}},
		{"unknown builtin", Rule{Name: "r", Head: A("a", V("X")), Body: []Atom{A("a", V("X"))},
			Conds: []Cond{{Fn: "nosuch", Args: []Term{V("X")}}}}},
		{"agg on store", Rule{Name: "r", Action: ActStore, Head: A("a", V("X")),
			Body: []Atom{A("ev", V("X"))}, Agg: &Agg{Over: "X"}}},
	}
	for _, c := range cases {
		if err := p.AddRule(c.rule); err == nil {
			t.Errorf("%s: invalid rule accepted", c.name)
		}
	}
}

// TestTuplesOrder pins what Tuples yields: a relation's active facts in
// canonical key order (string order, so 10 sorts before 2), without the
// retracted ones or those located at another node.
func TestTuplesOrder(t *testing.T) {
	p := NewProgram()
	p.Relation("r", 2, false)
	m := NewMachine(p, "n")
	r := func(at types.NodeID, x int64) types.Tuple { return types.MakeTuple("r", types.N(at), types.I(x)) }
	m.Step(ins("n", 1, r("n", 3)))
	m.Step(ins("n", 2, r("n", 10)))
	m.Step(ins("n", 3, r("m", 2))) // outbound: shipped to m
	m.Step(ins("n", 4, r("n", 2)))
	m.Step(ins("n", 5, r("n", 7)))
	m.Step(del("n", 6, r("n", 7))) // retracted
	m.Step(del("n", 7, r("n", 3)))
	m.Step(ins("n", 8, r("n", 3))) // re-inserted
	m.Step(ins("n", 9, r("n", 1)))
	want := []string{"r(@n,1)", "r(@n,10)", "r(@n,2)", "r(@n,3)"}
	var got []string
	for tup := range m.Tuples("r") {
		got = append(got, tup.Key())
	}
	if !slices.Equal(got, want) {
		t.Errorf("Tuples(r) = %v, want %v", got, want)
	}
	if n := len(slices.Collect(m.Tuples("undeclared"))); n != 0 {
		t.Errorf("Tuples of an unknown relation yielded %d tuples", n)
	}
	for range m.Tuples("r") {
		break // an early stop must not panic
	}
}
