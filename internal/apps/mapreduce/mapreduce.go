// Package mapreduce is a miniature MapReduce substrate instrumented with
// *reported* provenance at the level of individual key-value pairs — the
// paper's Hadoop application (§6.2, extraction method #2 of §5.3).
//
// Each map task and each reduce task is a SNooPy node. Input splits arrive
// as base tuples; a mapper emits combined (word, count) pairs per reducer
// partition, reporting each pair's dependency on its split; the shuffle is
// ordinary SNP messaging (so each map→reduce transfer is committed and
// acknowledged); reducers sum the believed pairs per word and report each
// output's dependency on the contributing map outputs.
package mapreduce

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Tuple shapes:
//
//	split(@map-i, splitID, text)            base input (the paper logs file
//	                                        hashes; we carry the text so
//	                                        replay is self-contained)
//	mapOut(@red-j, mapID, word, count)      combined intermediate pair
//	reduceGo(@red-j)                        driver signal: all maps done
//	out(@red-j, word, total)                final output pair

// Split builds an input split tuple.
func Split(mapper types.NodeID, id int64, text string) types.Tuple {
	return types.MakeTuple("split", types.N(mapper), types.I(id), types.S(text))
}

// MapOut builds an intermediate tuple.
func MapOut(reducer, mapper types.NodeID, word string, count int64) types.Tuple {
	return types.MakeTuple("mapOut", types.N(reducer), types.N(mapper), types.S(word), types.I(count))
}

// Out builds an output tuple.
func Out(reducer types.NodeID, word string, total int64) types.Tuple {
	return types.MakeTuple("out", types.N(reducer), types.S(word), types.I(total))
}

// Role distinguishes mapper and reducer machines.
type Role uint8

// Roles.
const (
	Mapper Role = iota
	Reducer
)

// Machine is the deterministic state machine for one MapReduce worker. It
// implements types.Machine and types.StateDumper.
type Machine struct {
	self     types.NodeID
	role     Role
	reducers []types.NodeID

	seqs map[types.NodeID]uint64
	now  types.Time

	// Mapper state: processed split IDs (map function is pure; outputs are
	// derived from splits and never retracted).
	splits map[int64]string
	// Reducer state: believed intermediate tuples with origins/times, plus
	// produced outputs.
	believed map[string]believedPair
	outputs  map[string]int64 // word -> total (after reduceGo)
	reduced  bool
}

type believedPair struct {
	tuple  types.Tuple
	origin types.NodeID
	since  types.Time
}

// NewMachine creates a worker machine. reducers lists the reducer node IDs
// (the partitioning table).
func NewMachine(self types.NodeID, role Role, reducers []types.NodeID) *Machine {
	return &Machine{
		self:     self,
		role:     role,
		reducers: append([]types.NodeID(nil), reducers...),
		seqs:     make(map[types.NodeID]uint64),
		splits:   make(map[int64]string),
		believed: make(map[string]believedPair),
		outputs:  make(map[string]int64),
	}
}

// Factory returns a replay factory; roles are inferred from node names
// ("map-*" / "red-*").
func Factory(reducers []types.NodeID) types.MachineFactory {
	return func(self types.NodeID) types.Machine {
		role := Mapper
		if isReducer(self) {
			role = Reducer
		}
		return NewMachine(self, role, reducers)
	}
}

func isReducer(id types.NodeID) bool { return strings.HasPrefix(string(id), "red-") }

// Partition assigns a word to a reducer.
func Partition(word string, reducers []types.NodeID) types.NodeID {
	h := fnv.New32a()
	h.Write([]byte(word))
	return reducers[int(h.Sum32())%len(reducers)]
}

// WordCount tokenizes text into lowercase words.
func WordCount(text string) map[string]int64 {
	counts := make(map[string]int64)
	for _, w := range strings.Fields(text) {
		w = strings.ToLower(strings.Trim(w, ".,;:!?\"'()[]"))
		if w != "" {
			counts[w]++
		}
	}
	return counts
}

// Step implements types.Machine.
func (m *Machine) Step(ev types.Event) []types.Output {
	m.now = ev.Time
	var outs []types.Output
	switch {
	case ev.Kind == types.EvIns && ev.Tuple.Rel == "split" && m.role == Mapper:
		outs = m.runMap(ev.Tuple)
	case ev.Kind == types.EvIns && ev.Tuple.Rel == "reduceGo" && m.role == Reducer:
		outs = m.runReduce()
	case ev.Kind == types.EvRcv && ev.Msg.Tuple.Rel == "mapOut" && m.role == Reducer:
		msg := ev.Msg
		if msg.Pol == types.PolAppear {
			m.believed[msg.Tuple.Key()] = believedPair{tuple: msg.Tuple, origin: msg.Src, since: ev.Time}
		} else if msg.Pol == types.PolDisappear {
			delete(m.believed, msg.Tuple.Key())
		}
	}
	return outs
}

// runMap executes the map task on one split: word counts are combined
// locally (the combiner), partitioned, and shipped. Every intermediate pair
// reports its provenance: rule "map" with the split as body.
func (m *Machine) runMap(split types.Tuple) []types.Output {
	id, text := split.Args[1].Int, split.Args[2].Str
	if _, dup := m.splits[id]; dup {
		return nil
	}
	m.splits[id] = text
	counts := WordCount(text)
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	var outs []types.Output
	for _, w := range words {
		reducer := Partition(w, m.reducers)
		pair := MapOut(reducer, m.self, w, counts[w])
		outs = append(outs, types.Output{Kind: types.OutDerive, Tuple: pair,
			Rule: "map", Body: []types.Tuple{split}, First: true})
		m.seqs[reducer]++
		outs = append(outs, types.Output{Kind: types.OutSend, Msg: &types.Message{
			Src: m.self, Dst: reducer, Pol: types.PolAppear, Tuple: pair,
			SendTime: m.now, Seq: m.seqs[reducer],
		}})
	}
	return outs
}

// runReduce sums believed pairs per word, reporting each output's
// provenance: rule "reduce" with the contributing pairs as body.
func (m *Machine) runReduce() []types.Output {
	if m.reduced {
		return nil
	}
	m.reduced = true
	byWord := map[string][]believedPair{}
	keys := make([]string, 0, len(m.believed))
	for k := range m.believed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := m.believed[k]
		w := p.tuple.Args[2].Str
		byWord[w] = append(byWord[w], p)
	}
	words := make([]string, 0, len(byWord))
	for w := range byWord {
		words = append(words, w)
	}
	sort.Strings(words)
	var outs []types.Output
	for _, w := range words {
		var total int64
		var body []types.Tuple
		for _, p := range byWord[w] {
			total += p.tuple.Args[3].Int
			body = append(body, p.tuple)
		}
		m.outputs[w] = total
		outs = append(outs, types.Output{Kind: types.OutDerive, Tuple: Out(m.self, w, total),
			Rule: "reduce", Body: body, First: true})
	}
	return outs
}

// Outputs returns the reducer's results (word -> total).
func (m *Machine) Outputs() map[string]int64 {
	out := make(map[string]int64, len(m.outputs))
	for w, c := range m.outputs {
		out[w] = c
	}
	return out
}

// Snapshot implements types.Machine.
func (m *Machine) Snapshot() []byte {
	w := wire.NewWriter(1024)
	ids := make([]int64, 0, len(m.splits))
	for id := range m.splits {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Uint(uint64(len(ids)))
	for _, id := range ids {
		w.Int(id)
		w.String(m.splits[id])
	}
	keys := make([]string, 0, len(m.believed))
	for k := range m.believed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uint(uint64(len(keys)))
	for _, k := range keys {
		p := m.believed[k]
		p.tuple.MarshalWire(w)
		w.String(string(p.origin))
		w.Int(int64(p.since))
	}
	words := make([]string, 0, len(m.outputs))
	for word := range m.outputs {
		words = append(words, word)
	}
	sort.Strings(words)
	w.Uint(uint64(len(words)))
	for _, word := range words {
		w.String(word)
		w.Int(m.outputs[word])
	}
	w.Bool(m.reduced)
	dsts := make([]string, 0, len(m.seqs))
	for d := range m.seqs {
		dsts = append(dsts, string(d))
	}
	sort.Strings(dsts)
	w.Uint(uint64(len(dsts)))
	for _, d := range dsts {
		w.String(d)
		w.Uint(m.seqs[types.NodeID(d)])
	}
	return w.Bytes()
}

// Restore implements types.Machine.
func (m *Machine) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	m.splits = make(map[int64]string)
	m.believed = make(map[string]believedPair)
	m.outputs = make(map[string]int64)
	m.seqs = make(map[types.NodeID]uint64)
	n := r.Uint()
	for i := uint64(0); i < n; i++ {
		id := r.Int()
		m.splits[id] = r.String()
	}
	n = r.Uint()
	for i := uint64(0); i < n; i++ {
		var p believedPair
		if err := p.tuple.UnmarshalWire(r); err != nil {
			return err
		}
		p.origin = types.NodeID(r.String())
		p.since = types.Time(r.Int())
		m.believed[p.tuple.Key()] = p
	}
	n = r.Uint()
	for i := uint64(0); i < n; i++ {
		word := r.String()
		m.outputs[word] = r.Int()
	}
	m.reduced = r.Bool()
	n = r.Uint()
	for i := uint64(0); i < n; i++ {
		d := r.String()
		m.seqs[types.NodeID(d)] = r.Uint()
	}
	return r.Finish()
}

// DumpExtants implements types.StateDumper.
func (m *Machine) DumpExtants() []types.ExtantTuple {
	var out []types.ExtantTuple
	ids := make([]int64, 0, len(m.splits))
	for id := range m.splits {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out = append(out, types.ExtantTuple{Tuple: Split(m.self, id, m.splits[id]), Local: true})
	}
	keys := make([]string, 0, len(m.believed))
	for k := range m.believed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := m.believed[k]
		out = append(out, types.ExtantTuple{Tuple: p.tuple,
			Believed: []types.Belief{{Origin: p.origin, Since: p.since}}})
	}
	words := make([]string, 0, len(m.outputs))
	for w := range m.outputs {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		out = append(out, types.ExtantTuple{Tuple: Out(m.self, w, m.outputs[w]), Local: true})
	}
	return out
}

// ---------------------------------------------------------------------------
// Job deployment.

// MapperName / ReducerName name the workers.
func MapperName(i int) types.NodeID  { return types.NodeID(fmt.Sprintf("map-%03d", i)) }
func ReducerName(i int) types.NodeID { return types.NodeID(fmt.Sprintf("red-%03d", i)) }

// Job describes a WordCount run.
type Job struct {
	Mappers  int
	Reducers int
	Splits   []string // one input split per mapper round-robin
	// StartAt is when the driver starts feeding splits; ReduceAt is when
	// reducers are told all map output has arrived; Duration is when the
	// job is over.
	StartAt  types.Time
	ReduceAt types.Time
	Duration types.Time
}

// New is the WordCount workload for job: the mappers, then the reducers;
// every mapper is fed its splits 10 ms apart from StartAt, every reducer is
// told to reduce at ReduceAt.
func New(job Job) *workload.Workload {
	w := &workload.Workload{Name: "mapreduce", Horizon: job.Duration}
	for i := 0; i < job.Mappers; i++ {
		w.Nodes = append(w.Nodes, MapperName(i))
		w.KeySeeds = append(w.KeySeeds, int64(2000+i))
	}
	for j := 0; j < job.Reducers; j++ {
		w.Nodes = append(w.Nodes, ReducerName(j))
		w.KeySeeds = append(w.KeySeeds, int64(3000+j))
	}
	reducers := Reducers(w.Nodes)
	w.Factory = Factory(reducers)
	for si, text := range job.Splits {
		mapper := w.Nodes[si%job.Mappers]
		w.At(mapper, job.StartAt+types.Time(si)*10*types.Millisecond, func(n *core.Node) {
			n.InsertBase(Split(mapper, int64(si), text))
		})
	}
	for _, r := range reducers {
		w.At(r, job.ReduceAt, func(n *core.Node) {
			n.InsertBase(types.MakeTuple("reduceGo", types.N(r)))
		})
	}
	return w
}

// Reducers returns the reducers among a job's nodes, in order: the
// partitioning table Partition and Factory take.
func Reducers(nodes []types.NodeID) []types.NodeID {
	var out []types.NodeID
	for _, id := range nodes {
		if isReducer(id) {
			out = append(out, id)
		}
	}
	return out
}
