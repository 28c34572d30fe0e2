package provgraph

import (
	"testing"

	"repro/internal/types"
)

// raceEnabled is set under -race, whose instrumentation changes what
// allocates.
var raceEnabled bool

// TestGraphAllocs guards what filling a graph allocates: a probe for a
// vertex the graph holds, a duplicate edge and an edge test cost nothing, and
// new vertices come from slabs, not one allocation each.
func TestGraphAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tup := types.MakeTuple("x", types.N("a"), types.I(1))
	msg := &types.Message{Src: "a", Dst: "b", Seq: 1, Pol: types.PolAppear, Tuple: tup}
	g := New()
	ap := g.Add(&Vertex{Type: VAppear, Host: "a", Tuple: tup, T1: 1})
	snd := g.Add(&Vertex{Type: VSend, Host: "a", Remote: "b", Msg: msg, T1: 1})
	if err := g.AddEdge(ap, snd); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Add of a present vertex", func() { g.Add(&Vertex{Type: VAppear, Host: "a", Tuple: tup, T1: 1}) }},
		{"Add of a present send", func() { g.Add(&Vertex{Type: VSend, Host: "a", Remote: "b", Msg: msg, T1: 1}) }},
		{"Find", func() { g.Find(&Vertex{Type: VSend, Host: "a", Msg: msg}) }},
		{"duplicate AddEdge", func() { _ = g.AddEdge(ap, snd) }},
		{"HasEdge", func() { g.HasEdge(ap, snd) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", c.name, n)
		}
	}

	// One allocation per vertex would be 1,000. Beyond the slabs, what a new
	// vertex costs is the amortized growth of the insertion-order, per-host
	// and per-tuple lists and of the identity index, about log2(1000) each:
	// 66 allocations in all when this was written.
	const n = 1000
	allocs := testing.AllocsPerRun(5, func() {
		g := New()
		for i := range n {
			g.Add(&Vertex{Type: VInsert, Host: "a", Tuple: tup, T1: types.Time(i)})
		}
	})
	if limit := float64(n/slabSize + 1 + 72); allocs > limit {
		t.Errorf("adding %d new vertices: %.0f allocations, want at most %.0f", n, allocs, limit)
	}
}
