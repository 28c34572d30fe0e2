package provgraph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Graph is a provenance graph: a set of vertices plus directed edges, with
// the lookup indices the GCA needs (open exist/believe vertices, appear
// vertices by instant). The zero value is not ready; use New.
type Graph struct {
	vertices map[string]*Vertex
	order    []*Vertex // insertion order, for deterministic iteration
	edges    map[[2]string]bool

	// openExist maps host|tuple to the open exist vertex, if any.
	openExist map[string]*Vertex
	// openBelieve maps host|origin|tuple to the open believe vertex.
	openBelieve map[string]*Vertex
	// instant indexes appear/disappear/believe-appear/believe-disappear
	// vertices by type|host|tuple|time (origin-wildcard, matching the
	// pseudocode's believe-appear(i,?,τ,t) lookups).
	instant map[string][]*Vertex
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		vertices:    make(map[string]*Vertex),
		edges:       make(map[[2]string]bool),
		openExist:   make(map[string]*Vertex),
		openBelieve: make(map[string]*Vertex),
		instant:     make(map[string][]*Vertex),
	}
}

func existKey(host types.NodeID, tup types.Tuple) string {
	return string(host) + "|" + tup.Key()
}

func believeKey(host, origin types.NodeID, tup types.Tuple) string {
	return string(host) + "|" + string(origin) + "|" + tup.Key()
}

// instantKey is an internal index key; it is built without fmt because the
// GCA performs an instant lookup for every body tuple of every derivation.
func instantKey(t VertexType, host types.NodeID, tup types.Tuple, at types.Time) string {
	var sb strings.Builder
	sb.Grow(len(host) + len(tup.Key()) + 28)
	sb.WriteString(strconv.FormatUint(uint64(t), 10))
	sb.WriteByte('|')
	sb.WriteString(string(host))
	sb.WriteByte('|')
	sb.WriteString(tup.Key())
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatInt(int64(at), 10))
	return sb.String()
}

// Add inserts v if no vertex with the same ID exists and returns the vertex
// that is in the graph afterwards (v or the pre-existing one).
func (g *Graph) Add(v *Vertex) *Vertex {
	if old, ok := g.vertices[v.ID()]; ok {
		return old
	}
	g.vertices[v.ID()] = v
	g.order = append(g.order, v)
	switch v.Type {
	case VExist:
		if v.Open() {
			g.openExist[existKey(v.Host, v.Tuple)] = v
		}
	case VBelieve:
		if v.Open() {
			g.openBelieve[believeKey(v.Host, v.Remote, v.Tuple)] = v
		}
	case VAppear, VDisappear, VBelieveAppear, VBelieveDisappear:
		k := instantKey(v.Type, v.Host, v.Tuple, v.T1)
		g.instant[k] = append(g.instant[k], v)
	}
	return v
}

// Get returns the vertex with the given ID, or nil.
func (g *Graph) Get(id string) *Vertex { return g.vertices[id] }

// Vertices returns all vertices in insertion order.
func (g *Graph) Vertices() []*Vertex { return g.order }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.order) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// AddEdge inserts the edge (from → to) if it is not already present. It
// returns an error for edges outside Table 1; the GCA never produces such
// edges, so an error indicates a bug in the caller.
func (g *Graph) AddEdge(from, to *Vertex) error {
	if !LegalEdge(from.Type, to.Type) {
		return fmt.Errorf("provgraph: illegal edge %s -> %s", from.Type, to.Type)
	}
	k := [2]string{from.ID(), to.ID()}
	if g.edges[k] {
		return nil
	}
	g.edges[k] = true
	from.out = append(from.out, to)
	to.in = append(to.in, from)
	return nil
}

// HasEdge reports whether the edge (from → to) is present.
func (g *Graph) HasEdge(from, to *Vertex) bool {
	return g.edges[[2]string{from.ID(), to.ID()}]
}

// OpenExist returns the open exist vertex for (host, tuple), or nil.
func (g *Graph) OpenExist(host types.NodeID, tup types.Tuple) *Vertex {
	return g.openExist[existKey(host, tup)]
}

// OpenBelieve returns the open believe vertex for (host, origin, tuple), or
// nil.
func (g *Graph) OpenBelieve(host, origin types.NodeID, tup types.Tuple) *Vertex {
	return g.openBelieve[believeKey(host, origin, tup)]
}

// OpenBelieveAny returns an open believe vertex on host for tuple from any
// origin (the pseudocode's believe(i,?,τ,[?,∞)) lookup). When several
// origins match, the one with the smallest origin ID is returned so the
// result is deterministic.
func (g *Graph) OpenBelieveAny(host types.NodeID, tup types.Tuple) *Vertex {
	var best *Vertex
	prefix := string(host) + "|"
	suffix := "|" + tup.Key()
	for k, v := range g.openBelieve {
		if len(k) >= len(prefix)+len(suffix) && k[:len(prefix)] == prefix && k[len(k)-len(suffix):] == suffix {
			if best == nil || v.Remote < best.Remote {
				best = v
			}
		}
	}
	return best
}

// CloseInterval closes an open exist/believe vertex at time t and
// deregisters it from the open index.
func (g *Graph) CloseInterval(v *Vertex, t types.Time) {
	if !v.Open() {
		return
	}
	v.T2 = t
	switch v.Type {
	case VExist:
		delete(g.openExist, existKey(v.Host, v.Tuple))
	case VBelieve:
		delete(g.openBelieve, believeKey(v.Host, v.Remote, v.Tuple))
	}
}

// FirstInstant returns the vertex with the smallest ID among those of the
// given instant type for (host, tuple) at exactly time at, or nil. It scans
// for the minimum instead of copying and sorting the bucket; this is the
// GCA's single most frequent lookup.
func (g *Graph) FirstInstant(t VertexType, host types.NodeID, tup types.Tuple, at types.Time) *Vertex {
	var best *Vertex
	for _, v := range g.instant[instantKey(t, host, tup, at)] {
		if best == nil || v.ID() < best.ID() {
			best = v
		}
	}
	return best
}

// SetColor upgrades v's color following the dominance order
// red > black > yellow; downgrades are ignored (Appendix B.3: color
// transitions only move up).
func (g *Graph) SetColor(v *Vertex, c Color) {
	if c.Dominates(v.Color) {
		v.Color = c
	}
}

// ByHost returns the vertices hosted on node id, in insertion order.
func (g *Graph) ByHost(id types.NodeID) []*Vertex {
	var out []*Vertex
	for _, v := range g.order {
		if v.Host == id {
			out = append(out, v)
		}
	}
	return out
}

// TupleVertices returns all vertices about the given tuple on host, in
// insertion order. It is the entry point for provenance queries ("explain
// bestCost(@c,d,5)").
func (g *Graph) TupleVertices(host types.NodeID, tup types.Tuple) []*Vertex {
	var out []*Vertex
	for _, v := range g.order {
		if v.Host == host && v.Tuple.Key() == tup.Key() {
			out = append(out, v)
		}
	}
	return out
}

// RedVertices returns all red vertices, in insertion order.
func (g *Graph) RedVertices() []*Vertex {
	var out []*Vertex
	for _, v := range g.order {
		if v.Color == Red {
			out = append(out, v)
		}
	}
	return out
}

// HostsWithColor returns the set of hosts that have at least one vertex of
// color c, sorted.
func (g *Graph) HostsWithColor(c Color) []types.NodeID {
	seen := map[types.NodeID]bool{}
	for _, v := range g.order {
		if v.Color == c {
			seen[v.Host] = true
		}
	}
	out := make([]types.NodeID, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subgraph reports whether every vertex and edge of g is present in h, with
// h's colors at least as dominant and intervals equal or narrowed (the ⊆*
// relation of Appendix B.2, used to state monotonicity).
func (g *Graph) Subgraph(h *Graph) bool {
	for _, v := range g.order {
		w := h.Get(v.ID())
		if w == nil {
			return false
		}
		if !w.Color.Dominates(v.Color) {
			return false
		}
		if v.Interval() && w.T2 > v.T2 {
			return false
		}
	}
	for e := range g.edges {
		if !h.edges[e] {
			return false
		}
	}
	return true
}

// Project returns the projection G|i of Appendix B.2: all vertices hosted
// on node id, plus any send/receive vertices on other nodes connected to
// them by an edge (those are copied with color yellow, since the projection
// cannot vouch for remote vertices).
func (g *Graph) Project(id types.NodeID) *Graph {
	p := New()
	include := map[string]bool{}
	for _, v := range g.order {
		if v.Host != id {
			continue
		}
		cp := *v
		cp.in, cp.out = nil, nil
		p.Add(&cp)
		include[v.ID()] = true
	}
	remote := func(v *Vertex) {
		if v.Host == id || (v.Type != VSend && v.Type != VReceive) {
			return
		}
		if include[v.ID()] {
			return
		}
		cp := *v
		cp.in, cp.out = nil, nil
		cp.Color = Yellow
		p.Add(&cp)
		include[v.ID()] = true
	}
	for _, v := range g.order {
		if v.Host != id {
			continue
		}
		for _, w := range v.in {
			remote(w)
		}
		for _, w := range v.out {
			remote(w)
		}
	}
	for e := range g.edges {
		if include[e[0]] && include[e[1]] {
			_ = p.AddEdge(p.Get(e[0]), p.Get(e[1]))
		}
	}
	return p
}

// Validate checks structural invariants: every edge is legal per Table 1,
// at most one open exist vertex per (host, tuple), and at most one open
// believe vertex per (host, origin, tuple). It returns the first violation.
func (g *Graph) Validate() error {
	for e := range g.edges {
		from, to := g.vertices[e[0]], g.vertices[e[1]]
		if from == nil || to == nil {
			return fmt.Errorf("provgraph: edge references missing vertex %v", e)
		}
		if !LegalEdge(from.Type, to.Type) {
			return fmt.Errorf("provgraph: illegal edge %s -> %s", from, to)
		}
	}
	open := map[string]int{}
	for _, v := range g.order {
		if v.Open() {
			var k string
			if v.Type == VExist {
				k = "e|" + existKey(v.Host, v.Tuple)
			} else {
				k = "b|" + believeKey(v.Host, v.Remote, v.Tuple)
			}
			open[k]++
			if open[k] > 1 {
				return fmt.Errorf("provgraph: %d open interval vertices for %s", open[k], k)
			}
		}
	}
	return nil
}
