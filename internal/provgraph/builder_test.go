package provgraph

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// testMachine is a tiny deterministic state machine used to exercise the
// GCA. Behavior:
//   - ins base(@self, k)  → derive out(@peer, k) via rule R and send +out
//   - del base(@self, k)  → underive out(@peer, k) and send −out
//   - rcv +out(@self, k)  → derive got(@self, k) via rule S
//   - rcv −out(@self, k)  → underive got(@self, k)
type testMachine struct {
	self types.NodeID
	peer types.NodeID
	seq  uint64
}

func newTestMachine(peer types.NodeID) types.MachineFactory {
	return func(self types.NodeID) types.Machine {
		return &testMachine{self: self, peer: peer}
	}
}

func outTuple(peer types.NodeID, k int64) types.Tuple {
	return types.MakeTuple("out", types.N(peer), types.I(k))
}

func gotTuple(self types.NodeID, k int64) types.Tuple {
	return types.MakeTuple("got", types.N(self), types.I(k))
}

func (m *testMachine) Step(ev types.Event) []types.Output {
	switch ev.Kind {
	case types.EvIns:
		if ev.Tuple.Rel != "base" {
			return nil
		}
		k := ev.Tuple.Args[1].Int
		out := outTuple(m.peer, k)
		m.seq++
		msg := &types.Message{Src: m.self, Dst: m.peer, Pol: types.PolAppear,
			Tuple: out, SendTime: ev.Time, Seq: m.seq}
		return []types.Output{
			{Kind: types.OutDerive, Tuple: out, Rule: "R", Body: []types.Tuple{ev.Tuple}, First: true},
			{Kind: types.OutSend, Msg: msg},
		}
	case types.EvDel:
		if ev.Tuple.Rel != "base" {
			return nil
		}
		k := ev.Tuple.Args[1].Int
		out := outTuple(m.peer, k)
		m.seq++
		msg := &types.Message{Src: m.self, Dst: m.peer, Pol: types.PolDisappear,
			Tuple: out, SendTime: ev.Time, Seq: m.seq}
		return []types.Output{
			{Kind: types.OutUnderive, Tuple: out, Rule: "R", Body: []types.Tuple{ev.Tuple}, Last: true},
			{Kind: types.OutSend, Msg: msg},
		}
	case types.EvRcv:
		if ev.Msg.Tuple.Rel != "out" {
			return nil
		}
		k := ev.Msg.Tuple.Args[1].Int
		got := gotTuple(m.self, k)
		if ev.Msg.Pol == types.PolAppear {
			return []types.Output{{Kind: types.OutDerive, Tuple: got, Rule: "S",
				Body: []types.Tuple{ev.Msg.Tuple}, First: true}}
		}
		return []types.Output{{Kind: types.OutUnderive, Tuple: got, Rule: "S",
			Body: []types.Tuple{ev.Msg.Tuple}, Last: true}}
	}
	return nil
}

func (m *testMachine) Snapshot() []byte { return []byte(fmt.Sprintf("%d", m.seq)) }
func (m *testMachine) Restore(s []byte) error {
	_, err := fmt.Sscanf(string(s), "%d", &m.seq)
	return err
}

// history builds the canonical correct two-node history: n1 inserts
// base(@n1,1) at t=10, the resulting +out reaches n2 at t=20 and is acked.
func correctHistory() []types.Event {
	msg := &types.Message{Src: "n1", Dst: "n2", Pol: types.PolAppear,
		Tuple: outTuple("n2", 1), SendTime: 10, Seq: 1}
	id := msg.ID()
	return []types.Event{
		{Kind: types.EvIns, Node: "n1", Time: 10, Tuple: types.MakeTuple("base", types.N("n1"), types.I(1))},
		{Kind: types.EvSnd, Node: "n1", Time: 10, Msg: msg},
		{Kind: types.EvRcv, Node: "n2", Time: 20, Msg: msg},
		{Kind: types.EvSnd, Node: "n2", Time: 20, AckID: &id, AckTime: 20},
		{Kind: types.EvRcv, Node: "n1", Time: 30, AckID: &id, AckTime: 20},
	}
}

// replay feeds events to b the way an auditor does: it steps a fresh test
// machine per node and hands each event over with that machine's outputs.
func replay(b *Builder, events []types.Event) {
	factory := newTestMachine("n2")
	machines := make(map[types.NodeID]types.Machine)
	for _, ev := range events {
		var outs []types.Output
		if StepsMachine(ev) {
			m := machines[ev.Node]
			if m == nil {
				m = factory(ev.Node)
				machines[ev.Node] = m
			}
			outs = m.Step(ev)
		}
		b.ApplyReplayed(ev, outs)
	}
}

func build(t *testing.T, events []types.Event) *Builder {
	t.Helper()
	b := NewBuilder(100)
	replay(b, events)
	if err := b.G.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	return b
}

func TestCorrectFlowVertices(t *testing.T) {
	b := build(t, correctHistory())
	g := b.G

	// base appears at n1, out appears at n1 (and is shipped), got appears
	// at n2 — three appear/exist pairs, two derives (R at n1, S at n2).
	wantTypes := map[VertexType]int{
		VInsert: 1, VAppear: 3, VExist: 3, VDerive: 2, VSend: 1,
		VReceive: 1, VBelieveAppear: 1, VBelieve: 1,
	}
	got := map[VertexType]int{}
	for _, v := range g.Vertices() {
		got[v.Type]++
	}
	for ty, n := range wantTypes {
		if got[ty] != n {
			t.Errorf("vertex count %s = %d, want %d", ty, got[ty], n)
		}
	}
	// Everything must be black after acknowledgment (Theorem 3 / Lemma 2).
	for _, v := range g.Vertices() {
		if v.Color != Black {
			t.Errorf("vertex %s is %s, want black", v, v.Color)
		}
	}
}

func TestCorrectFlowEdges(t *testing.T) {
	b := build(t, correctHistory())
	g := b.G

	// Walk backwards from got(@n2,1)'s exist vertex to the base insert.
	exist := g.OpenExist("n2", gotTuple("n2", 1))
	if exist == nil {
		t.Fatal("no open exist vertex for got(@n2,1)")
	}
	// exist ← appear ← derive ← believe-appear ← receive ← send ← appear ←
	// derive ← insert... follow single-predecessor chain.
	path := []VertexType{VExist, VAppear, VDerive, VBelieveAppear, VReceive, VSend, VAppear, VDerive, VAppear, VInsert}
	v := exist
	for i, want := range path {
		if v.Type != want {
			t.Fatalf("step %d: vertex %s, want type %s", i, v, want)
		}
		if i == len(path)-1 {
			break
		}
		if len(v.In()) == 0 {
			t.Fatalf("step %d: vertex %s has no predecessors", i, v)
		}
		// Prefer the predecessor matching the expected chain.
		var next *Vertex
		for _, w := range v.In() {
			if w.Type == path[i+1] {
				next = w
				break
			}
		}
		if next == nil {
			t.Fatalf("step %d: vertex %s has no %s predecessor (has %v)", i, v, path[i+1], v.In())
		}
		v = next
	}
}

func TestSuppressedSendTurnsRed(t *testing.T) {
	// n1 inserts base (machine wants to send +out) but the history shows no
	// snd; the next event on n1 must flag the pending send red (Lemma 3,
	// case 4).
	events := []types.Event{
		{Kind: types.EvIns, Node: "n1", Time: 10, Tuple: types.MakeTuple("base", types.N("n1"), types.I(1))},
		{Kind: types.EvIns, Node: "n1", Time: 20, Tuple: types.MakeTuple("base", types.N("n1"), types.I(2))},
	}
	b := build(t, events)
	var redSend int
	for _, v := range b.G.RedVertices() {
		if v.Type == VSend && v.Host == "n1" {
			redSend++
		}
	}
	if redSend != 1 {
		t.Errorf("red send vertices = %d, want 1", redSend)
	}
}

func TestFabricatedSendTurnsRed(t *testing.T) {
	// The history contains a snd the machine never produced (Lemma 3,
	// cases 1/3).
	msg := &types.Message{Src: "n1", Dst: "n2", Pol: types.PolAppear,
		Tuple: outTuple("n2", 99), SendTime: 10, Seq: 77}
	events := []types.Event{
		{Kind: types.EvSnd, Node: "n1", Time: 10, Msg: msg},
	}
	b := build(t, events)
	sends := 0
	for _, v := range b.G.RedVertices() {
		if v.Type == VSend && v.Host == "n1" {
			sends++
		}
	}
	if sends != 1 {
		t.Errorf("red send vertices = %d, want 1", sends)
	}
}

func TestUnackedReceiveTurnsRed(t *testing.T) {
	// n2 receives a message but the next n2 event is not the ack (Lemma 3,
	// case 2).
	msg := &types.Message{Src: "n1", Dst: "n2", Pol: types.PolAppear,
		Tuple: outTuple("n2", 1), SendTime: 10, Seq: 1}
	events := []types.Event{
		{Kind: types.EvRcv, Node: "n2", Time: 20, Msg: msg},
		{Kind: types.EvIns, Node: "n2", Time: 25, Tuple: types.MakeTuple("base", types.N("n2"), types.I(5))},
	}
	b := build(t, events)
	found := false
	for _, v := range b.G.RedVertices() {
		if v.Type == VReceive && v.Host == "n2" {
			found = true
		}
	}
	if !found {
		t.Error("expected a red receive vertex on n2")
	}
}

func TestMissingAckFinalize(t *testing.T) {
	// A send that is never acknowledged turns red at Finalize unless the
	// maintainer was notified (§5.4).
	events := correctHistory()[:2] // ins + snd only
	b := build(t, events)
	b.Finalize(map[types.NodeID]types.Time{"n1": 1000})
	reds := b.G.RedVertices()
	if len(reds) != 1 || reds[0].Type != VSend {
		t.Fatalf("red vertices = %v, want one send", reds)
	}

	// With a maintainer notification, the vertex stays yellow.
	b2 := NewBuilder(100)
	b2.MissedAckKnown = func(types.NodeID, types.MessageID) bool { return true }
	replay(b2, events)
	b2.Finalize(map[types.NodeID]types.Time{"n1": 1000})
	if n := len(b2.G.RedVertices()); n != 0 {
		t.Errorf("red vertices with maintainer notification = %d, want 0", n)
	}
}

func TestDeleteFlow(t *testing.T) {
	msgPlus := &types.Message{Src: "n1", Dst: "n2", Pol: types.PolAppear,
		Tuple: outTuple("n2", 1), SendTime: 10, Seq: 1}
	msgMinus := &types.Message{Src: "n1", Dst: "n2", Pol: types.PolDisappear,
		Tuple: outTuple("n2", 1), SendTime: 40, Seq: 2}
	idPlus, idMinus := msgPlus.ID(), msgMinus.ID()
	events := []types.Event{
		{Kind: types.EvIns, Node: "n1", Time: 10, Tuple: types.MakeTuple("base", types.N("n1"), types.I(1))},
		{Kind: types.EvSnd, Node: "n1", Time: 10, Msg: msgPlus},
		{Kind: types.EvRcv, Node: "n2", Time: 20, Msg: msgPlus},
		{Kind: types.EvSnd, Node: "n2", Time: 20, AckID: &idPlus, AckTime: 20},
		{Kind: types.EvRcv, Node: "n1", Time: 30, AckID: &idPlus, AckTime: 20},
		{Kind: types.EvDel, Node: "n1", Time: 40, Tuple: types.MakeTuple("base", types.N("n1"), types.I(1))},
		{Kind: types.EvSnd, Node: "n1", Time: 40, Msg: msgMinus},
		{Kind: types.EvRcv, Node: "n2", Time: 50, Msg: msgMinus},
		{Kind: types.EvSnd, Node: "n2", Time: 50, AckID: &idMinus, AckTime: 50},
		{Kind: types.EvRcv, Node: "n1", Time: 60, AckID: &idMinus, AckTime: 50},
	}
	b := build(t, events)
	g := b.G

	// got(@n2,1) must have existed during [20,50], now closed.
	var exist *Vertex
	for _, v := range g.TupleVertices("n2", gotTuple("n2", 1)) {
		if v.Type == VExist {
			exist = v
		}
	}
	if exist == nil {
		t.Fatal("no exist vertex for got(@n2,1)")
	}
	if exist.T1 != 20 || exist.T2 != 50 {
		t.Errorf("exist interval = [%d,%d], want [20,50]", exist.T1, exist.T2)
	}
	// The believe vertex for out(@n2,1) must also be closed.
	var believe *Vertex
	for _, v := range g.TupleVertices("n2", outTuple("n2", 1)) {
		if v.Type == VBelieve {
			believe = v
		}
	}
	if believe == nil || believe.T2 != 50 {
		t.Fatalf("believe vertex = %v, want closed at 50", believe)
	}
	for _, v := range g.Vertices() {
		if v.Color != Black {
			t.Errorf("vertex %s is %s, want black", v, v.Color)
		}
	}
}

func TestMonotonicity(t *testing.T) {
	// Theorem 1: the graph of every prefix is a subgraph of the full graph.
	events := correctHistory()
	full := build(t, events)
	for n := 0; n <= len(events); n++ {
		prefix := NewBuilder(100)
		replay(prefix, events[:n])
		if !prefix.G.Subgraph(full.G) {
			t.Errorf("G(prefix %d) is not a subgraph of G(full)", n)
		}
	}
}

func TestCompositionality(t *testing.T) {
	// Theorem 2: running the GCA on h|i yields G(h)|i.
	events := correctHistory()
	full := build(t, events)
	for _, node := range []types.NodeID{"n1", "n2"} {
		solo := NewBuilder(100)
		var own []types.Event
		for _, ev := range events {
			if ev.Node == node {
				own = append(own, ev)
			}
		}
		replay(solo, own)
		proj := full.G.Project(node)
		// Every vertex of the projection must appear in the solo build and
		// vice versa.
		for _, v := range proj.Vertices() {
			if solo.G.Find(v) == nil {
				t.Errorf("%s: projection vertex %s missing from solo build", node, v)
			}
		}
		for _, v := range solo.G.Vertices() {
			if proj.Find(v) == nil {
				t.Errorf("%s: solo vertex %s missing from projection", node, v)
			}
		}
	}
}

func TestMaybeRuleSatisfied(t *testing.T) {
	events := []types.Event{
		{Kind: types.EvIns, Node: "n1", Time: 5, Tuple: types.MakeTuple("prereq", types.N("n1"))},
		{Kind: types.EvIns, Node: "n1", Time: 10, Tuple: types.MakeTuple("choice", types.N("n1")),
			MaybeRule: "M", MaybeBody: []types.Tuple{types.MakeTuple("prereq", types.N("n1"))}},
	}
	b := build(t, events)
	if n := len(b.G.RedVertices()); n != 0 {
		t.Errorf("red vertices = %d, want 0 (maybe body satisfied)", n)
	}
	// The derive vertex must have an edge from prereq's state.
	var derive *Vertex
	for _, v := range b.G.Vertices() {
		if v.Type == VDerive && v.Rule == "M" {
			derive = v
		}
	}
	if derive == nil || len(derive.In()) == 0 {
		t.Fatalf("maybe derive vertex missing or unjustified: %v", derive)
	}
}

func TestMaybeRuleUnsatisfiedTurnsRed(t *testing.T) {
	events := []types.Event{
		{Kind: types.EvIns, Node: "n1", Time: 10, Tuple: types.MakeTuple("choice", types.N("n1")),
			MaybeRule: "M", MaybeBody: []types.Tuple{types.MakeTuple("prereq", types.N("n1"))}},
	}
	b := build(t, events)
	reds := b.G.RedVertices()
	if len(reds) != 1 || reds[0].Type != VDerive {
		t.Fatalf("red vertices = %v, want one derive", reds)
	}
}

func TestReplacementEdge(t *testing.T) {
	gamma := types.MakeTuple("route", types.N("n1"), types.S("old"))
	delta := types.MakeTuple("route", types.N("n1"), types.S("new"))
	events := []types.Event{
		{Kind: types.EvIns, Node: "n1", Time: 5, Tuple: gamma},
		{Kind: types.EvDel, Node: "n1", Time: 10, Tuple: gamma},
		{Kind: types.EvIns, Node: "n1", Time: 10, Tuple: delta, Replaces: []types.Tuple{gamma}},
	}
	b := build(t, events)
	var disappear, appear *Vertex
	for _, v := range b.G.Vertices() {
		if v.Type == VDisappear && v.Tuple.Equal(gamma) {
			disappear = v
		}
		if v.Type == VAppear && v.Tuple.Equal(delta) {
			appear = v
		}
	}
	if disappear == nil || appear == nil {
		t.Fatal("missing disappear/appear vertices")
	}
	if !b.G.HasEdge(disappear, appear) {
		t.Error("constraint edge disappear(γ) → appear(δ) missing")
	}
}

func TestHandleExtraMsg(t *testing.T) {
	b := build(t, nil)
	m := &types.Message{Src: "n1", Dst: "n2", Pol: types.PolAppear,
		Tuple: outTuple("n2", 3), SendTime: 7, Seq: 9}
	b.HandleExtraMsg(m)
	reds := b.G.RedVertices()
	if len(reds) != 2 {
		t.Fatalf("red vertices = %d, want 2 (send + receive)", len(reds))
	}
	// A second call must not duplicate or recolor.
	b.HandleExtraMsg(m)
	if len(b.G.RedVertices()) != 2 {
		t.Error("HandleExtraMsg is not idempotent")
	}
}

func TestExtraMsgLeavesExistingAlone(t *testing.T) {
	b := build(t, correctHistory())
	msg := &types.Message{Src: "n1", Dst: "n2", Pol: types.PolAppear,
		Tuple: outTuple("n2", 1), SendTime: 10, Seq: 1}
	b.HandleExtraMsg(msg)
	// The send/receive vertices already exist and are black; they must stay.
	if n := len(b.G.RedVertices()); n != 0 {
		t.Errorf("red vertices = %d, want 0 (message was already explained)", n)
	}
}

func TestSeedExistFromCheckpoint(t *testing.T) {
	b := NewBuilder(100)
	tup := types.MakeTuple("base", types.N("n1"), types.I(1))
	v := b.SeedExist("n1", tup, 3)
	if !v.FromCheckpoint || !v.Open() || v.Color != Black {
		t.Errorf("seeded vertex = %+v", v)
	}
	// Seeding twice returns the same vertex.
	if b.SeedExist("n1", tup, 3) != v {
		t.Error("SeedExist is not idempotent")
	}
}

// TestCollidingHashesGCA runs the GCA unit tests with every vertex identity
// hashed alike, so that the identity index answers everything but a graph's
// first vertex from its overflow map.
func TestCollidingHashesGCA(t *testing.T) {
	defer CollideHashes()()
	for _, c := range []struct {
		name string
		test func(*testing.T)
	}{
		{"CorrectFlowVertices", TestCorrectFlowVertices},
		{"CorrectFlowEdges", TestCorrectFlowEdges},
		{"SuppressedSendTurnsRed", TestSuppressedSendTurnsRed},
		{"FabricatedSendTurnsRed", TestFabricatedSendTurnsRed},
		{"UnackedReceiveTurnsRed", TestUnackedReceiveTurnsRed},
		{"MissingAckFinalize", TestMissingAckFinalize},
		{"DeleteFlow", TestDeleteFlow},
		{"Monotonicity", TestMonotonicity},
		{"Compositionality", TestCompositionality},
		{"MaybeRuleSatisfied", TestMaybeRuleSatisfied},
		{"MaybeRuleUnsatisfiedTurnsRed", TestMaybeRuleUnsatisfiedTurnsRed},
		{"ReplacementEdge", TestReplacementEdge},
		{"HandleExtraMsg", TestHandleExtraMsg},
		{"ExtraMsgLeavesExistingAlone", TestExtraMsgLeavesExistingAlone},
		{"SeedExistFromCheckpoint", TestSeedExistFromCheckpoint},
	} {
		t.Run(c.name, c.test)
	}
}
