package provgraph

import (
	"container/heap"
	"sort"

	"repro/internal/types"
)

// insmap is a map from K to vertices that remembers insertion order. The
// GCA drains its provisional receives on every event and its pending sends
// on nearly every one, so a drain must cost what it visits and nothing more:
// no key snapshot, no sort. Every drain treats each entry on its own (color
// it, drop it), so the order only has to be deterministic.
type insmap[K comparable] struct {
	pos  map[K]int // index into vals
	vals []*Vertex // insertion order; nil where the entry was deleted
}

func newInsmap[K comparable]() *insmap[K] { return &insmap[K]{pos: make(map[K]int)} }

func (m *insmap[K]) get(k K) *Vertex {
	if i, ok := m.pos[k]; ok {
		return m.vals[i]
	}
	return nil
}

// set stores v under k; an existing entry keeps its place.
func (m *insmap[K]) set(k K, v *Vertex) {
	if i, ok := m.pos[k]; ok {
		m.vals[i] = v
		return
	}
	m.pos[k] = len(m.vals)
	m.vals = append(m.vals, v)
}

func (m *insmap[K]) del(k K) {
	if i, ok := m.pos[k]; ok {
		m.vals[i] = nil
		delete(m.pos, k)
	}
}

// drain calls f for every entry in insertion order and empties the map. f
// must not touch m.
func (m *insmap[K]) drain(f func(*Vertex)) {
	if len(m.vals) == 0 {
		return
	}
	for _, v := range m.vals {
		if v != nil {
			f(v)
		}
	}
	clear(m.pos)
	clear(m.vals) // drop the vertex pointers, keep the capacity
	m.vals = m.vals[:0]
}

// unackedSet holds one node's send vertices whose acknowledgment has not
// been seen, by message ID, with a second view ordered by send time: every
// event of the node asks for the sends older than t − 2·Tprop, and the set
// can hold every message the node ever sent (when its receivers are audited
// first), so that question must not walk the sends that are young enough.
// Sends do not enter in T1 order — each receiver's log contributes its own
// ascending run — hence a heap and not a queue.
type unackedSet struct {
	byID map[types.MessageID]*Vertex
	byT1 t1Heap // every vertex ever set; stale once byID no longer maps its ID to it
}

func newUnackedSet() *unackedSet {
	return &unackedSet{byID: make(map[types.MessageID]*Vertex)}
}

func (u *unackedSet) set(id types.MessageID, v *Vertex) {
	u.byID[id] = v
	heap.Push(&u.byT1, v)
}

// expire removes every send with T1 < cutoff and calls f for each.
func (u *unackedSet) expire(cutoff types.Time, f func(types.MessageID, *Vertex)) {
	for len(u.byT1) > 0 && u.byT1[0].T1 < cutoff {
		v := heap.Pop(&u.byT1).(*Vertex)
		if id := v.Msg.ID(); u.byID[id] == v {
			delete(u.byID, id)
			f(id, v)
		}
	}
}

// t1Heap is a min-heap of send vertices by T1.
type t1Heap []*Vertex

func (h t1Heap) Len() int           { return len(h) }
func (h t1Heap) Less(i, j int) bool { return h[i].T1 < h[j].T1 }
func (h t1Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *t1Heap) Push(x any)        { *h = append(*h, x.(*Vertex)) }
func (h *t1Heap) Pop() any {
	old := *h
	v := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return v
}

// sortedNodeKeys returns the map's node IDs in sorted order (used only at
// Finalize, once per audit).
func sortedNodeKeys[V any](m map[types.NodeID]V) []types.NodeID {
	out := make([]types.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
