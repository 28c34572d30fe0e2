// Package provgraph implements the SNP provenance graph of §3 and the
// graph-construction algorithm (GCA) of Appendix B, Figures 10–11.
//
// Vertices represent state, state changes, and node interactions; each
// vertex is hosted by exactly one node (host(v), §3.2), which is what makes
// the graph partitionable and reconstructible per node (Theorem 2). Each
// vertex carries a color: black (legitimate), red (provable misbehavior), or
// yellow (not yet verified). Color dominance is red > black > yellow; a
// vertex's color can only move up the dominance order (Appendix B.3).
package provgraph

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// VertexType enumerates the twelve vertex types of §3.2.
type VertexType uint8

// The seven local vertex types followed by the five interaction types.
const (
	VInsert VertexType = iota
	VDelete
	VAppear
	VDisappear
	VExist
	VDerive
	VUnderive
	VSend
	VReceive
	VBelieveAppear
	VBelieveDisappear
	VBelieve
)

var vertexNames = [...]string{
	"INSERT", "DELETE", "APPEAR", "DISAPPEAR", "EXIST", "DERIVE", "UNDERIVE",
	"SEND", "RECEIVE", "BELIEVE-APPEAR", "BELIEVE-DISAPPEAR", "BELIEVE",
}

func (t VertexType) String() string {
	if int(t) < len(vertexNames) {
		return vertexNames[t]
	}
	return fmt.Sprintf("VERTEX(%d)", t)
}

// Color is a vertex color (§3.2, §4.2).
type Color uint8

// Colors, in dominance order: red > black > yellow (Appendix B.1).
const (
	Yellow Color = iota
	Black
	Red
)

func (c Color) String() string {
	switch c {
	case Yellow:
		return "yellow"
	case Black:
		return "black"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("color(%d)", c)
	}
}

// Dominates reports whether c is at least as dominant as o.
func (c Color) Dominates(o Color) bool { return c >= o }

// Forever is the open end of an interval ("now"/∞ in the paper).
const Forever = types.Time(1<<63 - 1)

// Vertex is one vertex of the provenance graph.
//
// Field usage by type:
//   - insert/delete/appear/disappear: Tuple, T1 (the instant)
//   - exist: Tuple, [T1, T2] (T2 == Forever while open)
//   - derive/underive: Tuple, Rule, T1
//   - send/receive: Msg, T1; Remote is the peer node
//   - believe-appear/believe-disappear: Tuple, Remote (origin node), T1
//   - believe: Tuple, Remote, [T1, T2]
type Vertex struct {
	Type   VertexType
	Host   types.NodeID
	Tuple  types.Tuple
	Rule   string
	Remote types.NodeID
	Msg    *types.Message
	T1     types.Time
	T2     types.Time
	Color  Color

	// FromCheckpoint marks exist/believe vertices reconstructed from a
	// checkpoint rather than observed appearing; their causal predecessors
	// live in an earlier log segment (§5.6).
	FromCheckpoint bool

	id  string // rendered on first use
	idx int32  // position in the owning graph's insertion order
	// nopred marks a send vertex the GCA created that has no incoming edge
	// yet (the pseudocode's nopreds set).
	nopred bool
	in     []*Vertex
	out    []*Vertex
}

// ID returns a stable unique identifier for the vertex. The graph itself is
// keyed by the same fields as a comparable value (vkey); the string exists
// for canonical ordering and for output, and is rendered on first use.
func (v *Vertex) ID() string {
	if v.id == "" {
		v.id = v.computeID()
	}
	return v.id
}

func (v *Vertex) computeID() string {
	var sb strings.Builder
	sb.WriteString(v.Type.String())
	sb.WriteByte('|')
	sb.WriteString(string(v.Host))
	sb.WriteByte('|')
	switch v.Type {
	case VSend, VReceive:
		// Identity includes the payload: a node that transmits different
		// content under a sequence number its machine assigned to another
		// message must yield a distinct (red) vertex.
		id := v.Msg.ID()
		fmt.Fprintf(&sb, "%s>%s#%d|%s%s", id.Src, id.Dst, id.Seq, v.Msg.Pol, v.Msg.Tuple.Key())
	case VExist, VBelieve:
		// Interval vertices are keyed by their opening time so that a tuple
		// that exists, disappears, and reappears yields distinct epochs.
		fmt.Fprintf(&sb, "%s|%s|%d", v.Remote, v.Tuple.Key(), v.T1)
	case VDerive, VUnderive:
		// Remote carries the body fingerprint so that two distinct firings
		// of one rule for one tuple at one instant remain distinguishable.
		fmt.Fprintf(&sb, "%s|%s|%d|%s", v.Rule, v.Tuple.Key(), v.T1, v.Remote)
	default:
		fmt.Fprintf(&sb, "%s|%s|%d", v.Remote, v.Tuple.Key(), v.T1)
	}
	return sb.String()
}

// In returns the predecessor vertices (causes).
func (v *Vertex) In() []*Vertex { return v.in }

// Out returns the successor vertices (effects).
func (v *Vertex) Out() []*Vertex { return v.out }

// Interval reports whether the vertex is an interval type (exist/believe).
func (v *Vertex) Interval() bool { return v.Type == VExist || v.Type == VBelieve }

// Open reports whether an interval vertex is still open.
func (v *Vertex) Open() bool { return v.Interval() && v.T2 == Forever }

// Label renders the vertex like the paper's figures, e.g.
// "EXIST(c, bestCost(@c,d,5), [3,now])".
func (v *Vertex) Label() string {
	var sb strings.Builder
	sb.WriteString(v.Type.String())
	sb.WriteByte('(')
	sb.WriteString(string(v.Host))
	switch v.Type {
	case VSend, VReceive:
		fmt.Fprintf(&sb, ", %s, %s%s, %s", v.Remote, v.Msg.Pol, v.Msg.Tuple, fmtT(v.T1))
	case VExist:
		fmt.Fprintf(&sb, ", %s, [%s, %s]", v.Tuple, fmtT(v.T1), fmtT(v.T2))
	case VBelieve:
		fmt.Fprintf(&sb, ", %s, %s, [%s, %s]", v.Remote, v.Tuple, fmtT(v.T1), fmtT(v.T2))
	case VBelieveAppear, VBelieveDisappear:
		fmt.Fprintf(&sb, ", %s, %s, %s", v.Remote, v.Tuple, fmtT(v.T1))
	case VDerive, VUnderive:
		fmt.Fprintf(&sb, ", %s, %s, %s", v.Tuple, v.Rule, fmtT(v.T1))
	default:
		fmt.Fprintf(&sb, ", %s, %s", v.Tuple, fmtT(v.T1))
	}
	sb.WriteByte(')')
	return sb.String()
}

func fmtT(t types.Time) string {
	if t == Forever {
		return "now"
	}
	return fmt.Sprintf("t%d", t)
}

func (v *Vertex) String() string { return v.Label() }

// legalEdges is Table 1 of the paper: for each vertex type, the set of
// vertex types its outbound edges may point to. One extension beyond the
// table: disappear → appear, the §3.4 constraint edge recording that one
// tuple's appearance was caused by another's replacement.
var legalEdges = map[VertexType]map[VertexType]bool{
	VInsert:           {VAppear: true},
	VDelete:           {VDisappear: true},
	VAppear:           {VExist: true, VSend: true, VDerive: true},
	VDisappear:        {VExist: true, VSend: true, VUnderive: true, VAppear: true},
	VExist:            {VDerive: true, VUnderive: true},
	VDerive:           {VAppear: true},
	VUnderive:         {VDisappear: true},
	VSend:             {VReceive: true},
	VReceive:          {VBelieveAppear: true, VBelieveDisappear: true},
	VBelieveAppear:    {VBelieve: true, VDerive: true},
	VBelieveDisappear: {VBelieve: true, VUnderive: true},
	VBelieve:          {VDerive: true, VUnderive: true},
}

// LegalEdge reports whether an edge from a vertex of type a to one of type b
// is permitted by Table 1 (plus the constraint extension).
func LegalEdge(a, b VertexType) bool { return legalEdges[a][b] }
