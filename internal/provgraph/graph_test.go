package provgraph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestColorDominance(t *testing.T) {
	if !Red.Dominates(Black) || !Black.Dominates(Yellow) || !Red.Dominates(Yellow) {
		t.Error("dominance order broken")
	}
	if Yellow.Dominates(Black) || Black.Dominates(Red) {
		t.Error("reverse dominance allowed")
	}
}

func TestSetColorOnlyUpgrades(t *testing.T) {
	g := New()
	v := g.Add(&Vertex{Type: VSend, Host: "a", Msg: &types.Message{Src: "a", Dst: "b", Seq: 1}, Color: Yellow})
	g.SetColor(v, Black)
	if v.Color != Black {
		t.Fatalf("color = %s, want black", v.Color)
	}
	g.SetColor(v, Yellow)
	if v.Color != Black {
		t.Error("color downgraded to yellow")
	}
	g.SetColor(v, Red)
	if v.Color != Red {
		t.Error("red upgrade refused")
	}
	g.SetColor(v, Black)
	if v.Color != Red {
		t.Error("red downgraded to black (violates Theorem 1 proof)")
	}
}

func TestIllegalEdgeRejected(t *testing.T) {
	g := New()
	tup := types.MakeTuple("x", types.N("a"))
	ins := g.Add(&Vertex{Type: VInsert, Host: "a", Tuple: tup, T1: 1})
	del := g.Add(&Vertex{Type: VDelete, Host: "a", Tuple: tup, T1: 2})
	if err := g.AddEdge(ins, del); err == nil {
		t.Error("insert → delete edge accepted")
	}
}

// TestEdgeTableInvariant checks Table 1 of the paper: exactly the listed
// type pairs are legal (plus the documented disappear→appear constraint
// extension).
func TestEdgeTableInvariant(t *testing.T) {
	want := map[[2]VertexType]bool{
		{VInsert, VAppear}:             true,
		{VDelete, VDisappear}:          true,
		{VAppear, VExist}:              true,
		{VAppear, VSend}:               true,
		{VAppear, VDerive}:             true,
		{VDisappear, VExist}:           true,
		{VDisappear, VSend}:            true,
		{VDisappear, VUnderive}:        true,
		{VDisappear, VAppear}:          true, // §3.4 constraint extension
		{VExist, VDerive}:              true,
		{VExist, VUnderive}:            true,
		{VDerive, VAppear}:             true,
		{VUnderive, VDisappear}:        true,
		{VSend, VReceive}:              true,
		{VReceive, VBelieveAppear}:     true,
		{VReceive, VBelieveDisappear}:  true,
		{VBelieveAppear, VBelieve}:     true,
		{VBelieveAppear, VDerive}:      true,
		{VBelieveDisappear, VBelieve}:  true,
		{VBelieveDisappear, VUnderive}: true,
		{VBelieve, VDerive}:            true,
		{VBelieve, VUnderive}:          true,
	}
	for a := VInsert; a <= VBelieve; a++ {
		for b := VInsert; b <= VBelieve; b++ {
			if got := LegalEdge(a, b); got != want[[2]VertexType{a, b}] {
				t.Errorf("LegalEdge(%s, %s) = %v, want %v", a, b, got, !got)
			}
		}
	}
}

func TestOpenIntervalIndices(t *testing.T) {
	g := New()
	tup := types.MakeTuple("x", types.N("a"), types.I(1))
	e := g.Add(&Vertex{Type: VExist, Host: "a", Tuple: tup, T1: 1, T2: Forever})
	if g.OpenExist("a", tup) != e {
		t.Fatal("open exist not indexed")
	}
	g.CloseInterval(e, 9)
	if g.OpenExist("a", tup) != nil {
		t.Fatal("closed exist still indexed")
	}
	if e.T2 != 9 {
		t.Fatalf("T2 = %d, want 9", e.T2)
	}

	b1 := g.Add(&Vertex{Type: VBelieve, Host: "a", Remote: "zz", Tuple: tup, T1: 1, T2: Forever})
	b2 := g.Add(&Vertex{Type: VBelieve, Host: "a", Remote: "bb", Tuple: tup, T1: 2, T2: Forever})
	_ = b1
	// Any-origin lookup must be deterministic: smallest origin wins.
	if got := g.OpenBelieveAny("a", tup); got != b2 {
		t.Fatalf("OpenBelieveAny picked %v, want origin bb", got)
	}
	if got := g.OpenBelieve("a", "zz", tup); got != b1 {
		t.Fatalf("OpenBelieve(zz) = %v", got)
	}
}

func TestOpenBelieveAnySmallestOrigin(t *testing.T) {
	g := New()
	tup := types.MakeTuple("x", types.N("a"), types.I(1))
	open := map[types.NodeID]*Vertex{}
	for i, origin := range []types.NodeID{"m", "c", "t"} {
		open[origin] = g.Add(&Vertex{Type: VBelieve, Host: "a", Remote: origin, Tuple: tup, T1: types.Time(i + 1), T2: Forever})
	}
	// The same tuple believed on another host, and another tuple on this
	// one, must not leak into the lookup.
	g.Add(&Vertex{Type: VBelieve, Host: "b", Remote: "a0", Tuple: tup, T1: 1, T2: Forever})
	g.Add(&Vertex{Type: VBelieve, Host: "a", Remote: "a0", Tuple: types.MakeTuple("y", types.N("a")), T1: 1, T2: Forever})
	for _, want := range []types.NodeID{"c", "m", "t"} {
		if got := g.OpenBelieveAny("a", tup); got != open[want] {
			t.Fatalf("OpenBelieveAny = %v, want the believe vertex from %s", got, want)
		}
		g.CloseInterval(open[want], 9)
		if g.OpenBelieve("a", want, tup) != nil {
			t.Fatalf("closed believe from %s still indexed", want)
		}
	}
	if got := g.OpenBelieveAny("a", tup); got != nil {
		t.Fatalf("OpenBelieveAny = %v after every origin closed", got)
	}
}

func TestAddDeduplicates(t *testing.T) {
	g := New()
	tup := types.MakeTuple("x", types.N("a"))
	v1 := g.Add(&Vertex{Type: VAppear, Host: "a", Tuple: tup, T1: 5})
	v2 := g.Add(&Vertex{Type: VAppear, Host: "a", Tuple: tup, T1: 5})
	if v1 != v2 {
		t.Error("duplicate vertex inserted")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestSubgraphReflexiveAndStrict(t *testing.T) {
	b := build(t, correctHistory())
	if !b.G.Subgraph(b.G) {
		t.Error("graph is not a subgraph of itself")
	}
	empty := New()
	if !empty.Subgraph(b.G) {
		t.Error("empty graph is not a subgraph")
	}
	if b.G.Subgraph(empty) {
		t.Error("non-empty graph is a subgraph of empty")
	}
}

func TestProjectHostsOnly(t *testing.T) {
	b := build(t, correctHistory())
	p := b.G.Project("n1")
	for _, v := range p.Vertices() {
		if v.Host != "n1" && v.Type != VSend && v.Type != VReceive {
			t.Errorf("projection contains foreign vertex %s", v)
		}
	}
	if err := p.Validate(); err != nil {
		t.Errorf("projection invalid: %v", err)
	}
}

func TestVertexIDStableQuick(t *testing.T) {
	f := func(rel string, k int64, at int64) bool {
		tup := types.MakeTuple(rel, types.N("h"), types.I(k))
		a := &Vertex{Type: VAppear, Host: "h", Tuple: tup, T1: types.Time(at)}
		b := &Vertex{Type: VAppear, Host: "h", Tuple: tup, T1: types.Time(at)}
		return a.ID() == b.ID()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabels(t *testing.T) {
	tup := types.MakeTuple("bestCost", types.N("c"), types.N("d"), types.I(5))
	v := &Vertex{Type: VExist, Host: "c", Tuple: tup, T1: 3, T2: Forever}
	if got, want := v.Label(), "EXIST(c, bestCost(@c,@d,5), [t3, now])"; got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
}

// TestProjectDeterministic projects one graph twice: every vertex of the two
// projections must list its successors in the same order. An exist vertex
// feeding many derive vertices gives the order room to differ.
func TestProjectDeterministic(t *testing.T) {
	g := New()
	tup := types.MakeTuple("x", types.N("a"), types.I(1))
	ap := g.Add(&Vertex{Type: VAppear, Host: "a", Tuple: tup, T1: 1})
	ex := g.Add(&Vertex{Type: VExist, Host: "a", Tuple: tup, T1: 1, T2: Forever})
	if err := g.AddEdge(ap, ex); err != nil {
		t.Fatal(err)
	}
	for i := range 32 {
		head := types.MakeTuple("y", types.N("a"), types.I(int64(i)))
		d := g.Add(&Vertex{Type: VDerive, Host: "a", Tuple: head, Rule: "r", T1: types.Time(2 + i)})
		if err := g.AddEdge(ex, d); err != nil {
			t.Fatal(err)
		}
	}
	outs := func(p *Graph) (ids [][]string) {
		for _, v := range p.Vertices() {
			var row []string
			for _, w := range v.Out() {
				row = append(row, w.ID())
			}
			ids = append(ids, row)
		}
		return ids
	}
	first, second := outs(g.Project("a")), outs(g.Project("a"))
	if len(first) != g.Len() {
		t.Fatalf("projection has %d vertices, want %d", len(first), g.Len())
	}
	for i := range first {
		if !slices.Equal(first[i], second[i]) {
			t.Fatalf("vertex %d: Out() is %v in one projection, %v in another", i, first[i], second[i])
		}
	}
	if !slices.Equal(first[1], outs(g)[1]) {
		t.Errorf("projected Out() %v, want the graph's order %v", first[1], outs(g)[1])
	}
}
