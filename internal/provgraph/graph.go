package provgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/types"
)

// Graph is a provenance graph: a set of vertices plus directed edges, with
// the lookup indices the GCA needs (open exist/believe vertices, appear
// vertices by instant). Every index is keyed by a comparable struct or a
// dense vertex index; no string is built per vertex or per lookup. The zero
// value is not ready; use New.
type Graph struct {
	index map[vkey]*Vertex      // identity → vertex
	order []*Vertex             // insertion order; order[v.idx] == v
	edges map[[2]int32]struct{} // (from.idx, to.idx)

	byHost map[types.NodeID][]*Vertex
	tuples map[hostTuple]*tupleIndex
	// instant holds, per (type, host, tuple, time) of the appear/disappear/
	// believe-appear/believe-disappear vertices (origin-wildcard, matching
	// the pseudocode's believe-appear(i,?,τ,t) lookups), the one with the
	// smallest ID.
	instant map[instantKey]*Vertex
}

// vkey is a vertex's identity as a comparable value: exactly the fields
// ID() renders for the vertex's type, so two vertices have equal keys when
// and only when they have equal IDs.
//
//	send, receive:     a, b = message source and destination, n = its
//	                   sequence number, tuple = the message's tuple
//	derive, underive:  a = body fingerprint (Remote), b = Rule, n = T1
//	every other type:  a = Remote, n = T1
type vkey struct {
	typ   VertexType
	pol   types.Polarity // send, receive
	host  types.NodeID
	a, b  types.NodeID
	tuple string // Tuple.Key()
	n     uint64
}

func (v *Vertex) key() vkey {
	k := vkey{typ: v.Type, host: v.Host}
	switch v.Type {
	case VSend, VReceive:
		m := v.Msg
		k.a, k.b, k.n, k.tuple = m.Src, m.Dst, m.Seq, m.Tuple.Key()
		// Every polarity outside the three defined ones renders as "?".
		k.pol = min(m.Pol, types.PolBoth+1)
	case VDerive, VUnderive:
		k.a, k.b, k.n, k.tuple = v.Remote, types.NodeID(v.Rule), uint64(v.T1), v.Tuple.Key()
	default:
		k.a, k.n, k.tuple = v.Remote, uint64(v.T1), v.Tuple.Key()
	}
	return k
}

type hostTuple struct {
	host  types.NodeID
	tuple string // Tuple.Key()
}

type instantKey struct {
	typ   VertexType
	host  types.NodeID
	tuple string
	at    types.Time
}

// tupleIndex is everything the graph knows about one tuple on one host.
type tupleIndex struct {
	vertices    []*Vertex // insertion order
	openExist   *Vertex
	openBelieve []*Vertex // at most one per origin
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		index:   make(map[vkey]*Vertex),
		edges:   make(map[[2]int32]struct{}),
		byHost:  make(map[types.NodeID][]*Vertex),
		tuples:  make(map[hostTuple]*tupleIndex),
		instant: make(map[instantKey]*Vertex),
	}
}

// Add inserts v if no vertex with the same ID exists and returns the vertex
// that is in the graph afterwards (v or the pre-existing one).
func (g *Graph) Add(v *Vertex) *Vertex {
	k := v.key()
	if old, ok := g.index[k]; ok {
		return old
	}
	v.idx = int32(len(g.order))
	g.index[k] = v
	g.order = append(g.order, v)
	g.byHost[v.Host] = append(g.byHost[v.Host], v)
	ht := hostTuple{v.Host, v.Tuple.Key()}
	ti := g.tuples[ht]
	if ti == nil {
		ti = new(tupleIndex)
		g.tuples[ht] = ti
	}
	ti.vertices = append(ti.vertices, v)
	switch v.Type {
	case VExist:
		if v.Open() {
			ti.openExist = v
		}
	case VBelieve:
		if v.Open() {
			ti.closeBelieve(v.Remote)
			ti.openBelieve = append(ti.openBelieve, v)
		}
	case VAppear, VDisappear, VBelieveAppear, VBelieveDisappear:
		ik := instantKey{v.Type, v.Host, ht.tuple, v.T1}
		if first, ok := g.instant[ik]; !ok || v.ID() < first.ID() {
			g.instant[ik] = v
		}
	}
	return v
}

// closeBelieve drops the open believe vertex from origin, if any.
func (ti *tupleIndex) closeBelieve(origin types.NodeID) {
	for i, w := range ti.openBelieve {
		if w.Remote == origin {
			ti.openBelieve = append(ti.openBelieve[:i], ti.openBelieve[i+1:]...)
			return
		}
	}
}

// Find returns the vertex of g with the same ID as probe, or nil. The probe
// need not be in any graph.
func (g *Graph) Find(probe *Vertex) *Vertex { return g.index[probe.key()] }

// Vertices returns all vertices in insertion order.
func (g *Graph) Vertices() []*Vertex { return g.order }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.order) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// AddEdge inserts the edge (from → to) between two vertices of g if it is
// not already present. It returns an error for edges outside Table 1; the
// GCA never produces such edges, so an error indicates a bug in the caller.
func (g *Graph) AddEdge(from, to *Vertex) error {
	if !LegalEdge(from.Type, to.Type) {
		return fmt.Errorf("provgraph: illegal edge %s -> %s", from.Type, to.Type)
	}
	k := [2]int32{from.idx, to.idx}
	if _, ok := g.edges[k]; ok {
		return nil
	}
	g.edges[k] = struct{}{}
	from.out = append(from.out, to)
	to.in = append(to.in, from)
	return nil
}

// HasEdge reports whether the edge (from → to) is present.
func (g *Graph) HasEdge(from, to *Vertex) bool {
	_, ok := g.edges[[2]int32{from.idx, to.idx}]
	return ok
}

// OpenExist returns the open exist vertex for (host, tuple), or nil.
func (g *Graph) OpenExist(host types.NodeID, tup types.Tuple) *Vertex {
	if ti := g.tuples[hostTuple{host, tup.Key()}]; ti != nil {
		return ti.openExist
	}
	return nil
}

// OpenBelieve returns the open believe vertex for (host, origin, tuple), or
// nil.
func (g *Graph) OpenBelieve(host, origin types.NodeID, tup types.Tuple) *Vertex {
	if ti := g.tuples[hostTuple{host, tup.Key()}]; ti != nil {
		for _, v := range ti.openBelieve {
			if v.Remote == origin {
				return v
			}
		}
	}
	return nil
}

// OpenBelieveAny returns an open believe vertex on host for tuple from any
// origin (the pseudocode's believe(i,?,τ,[?,∞)) lookup). When several
// origins match, the one with the smallest origin ID is returned so the
// result is deterministic.
func (g *Graph) OpenBelieveAny(host types.NodeID, tup types.Tuple) *Vertex {
	var best *Vertex
	if ti := g.tuples[hostTuple{host, tup.Key()}]; ti != nil {
		for _, v := range ti.openBelieve {
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
	ti := g.tuples[hostTuple{v.Host, v.Tuple.Key()}]
	if ti == nil {
		return
	}
	switch v.Type {
	case VExist:
		ti.openExist = nil
	case VBelieve:
		ti.closeBelieve(v.Remote)
	}
}

// FirstInstant returns the vertex with the smallest ID among those of the
// given instant type for (host, tuple) at exactly time at, or nil. This is
// the GCA's single most frequent lookup; Add keeps the answer ready.
func (g *Graph) FirstInstant(t VertexType, host types.NodeID, tup types.Tuple, at types.Time) *Vertex {
	return g.instant[instantKey{t, host, tup.Key(), at}]
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
func (g *Graph) ByHost(id types.NodeID) []*Vertex { return g.byHost[id] }

// TupleVertices returns all vertices about the given tuple on host, in
// insertion order. It is the entry point for provenance queries ("explain
// bestCost(@c,d,5)").
func (g *Graph) TupleVertices(host types.NodeID, tup types.Tuple) []*Vertex {
	if ti := g.tuples[hostTuple{host, tup.Key()}]; ti != nil {
		return ti.vertices
	}
	return nil
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

// Digest returns the hex SHA-256 over, in insertion order, each vertex's ID,
// color, T2 and sorted out-neighbour IDs. Two graphs with equal digests were
// built by the same sequence of Adds and hold the same colors, intervals and
// edges; the equivalence tests and the golden file under testdata/ compare
// graphs by it.
func (g *Graph) Digest() string {
	h := sha256.New()
	var outs []string
	for _, v := range g.Vertices() {
		outs = outs[:0]
		for _, w := range v.Out() {
			outs = append(outs, w.ID())
		}
		sort.Strings(outs)
		fmt.Fprintf(h, "%s\x00%d\x00%d", v.ID(), v.Color, v.T2)
		for _, id := range outs {
			fmt.Fprintf(h, "\x00%s", id)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Subgraph reports whether every vertex and edge of g is present in h, with
// h's colors at least as dominant and intervals equal or narrowed (the ⊆*
// relation of Appendix B.2, used to state monotonicity).
func (g *Graph) Subgraph(h *Graph) bool {
	for _, v := range g.order {
		w := h.Find(v)
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
		// Both ends were found in h by the loop above.
		if !h.HasEdge(h.Find(g.order[e[0]]), h.Find(g.order[e[1]])) {
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
	copies := map[*Vertex]*Vertex{}
	include := func(v *Vertex, c Color) {
		cp := *v
		cp.in, cp.out, cp.Color = nil, nil, c
		copies[v] = p.Add(&cp)
	}
	for _, v := range g.byHost[id] {
		include(v, v.Color)
	}
	remote := func(v *Vertex) {
		if v.Host != id && (v.Type == VSend || v.Type == VReceive) && copies[v] == nil {
			include(v, Yellow)
		}
	}
	for _, v := range g.byHost[id] {
		for _, w := range v.in {
			remote(w)
		}
		for _, w := range v.out {
			remote(w)
		}
	}
	for e := range g.edges {
		if from, to := copies[g.order[e[0]]], copies[g.order[e[1]]]; from != nil && to != nil {
			_ = p.AddEdge(from, to)
		}
	}
	return p
}

// Validate checks structural invariants: every edge is legal per Table 1,
// at most one open exist vertex per (host, tuple), and at most one open
// believe vertex per (host, origin, tuple). It returns the first violation.
func (g *Graph) Validate() error {
	for e := range g.edges {
		if from, to := g.order[e[0]], g.order[e[1]]; !LegalEdge(from.Type, to.Type) {
			return fmt.Errorf("provgraph: illegal edge %s -> %s", from, to)
		}
	}
	type openKey struct {
		typ          VertexType
		host, origin types.NodeID
		tuple        string
	}
	open := map[openKey]int{}
	for _, v := range g.order {
		if v.Open() {
			k := openKey{v.Type, v.Host, v.Remote, v.Tuple.Key()}
			if v.Type == VExist {
				k.origin = ""
			}
			open[k]++
			if open[k] > 1 {
				return fmt.Errorf("provgraph: %d open interval vertices for %v", open[k], k)
			}
		}
	}
	return nil
}
