package mapreduce_test

import (
	"strings"
	"testing"

	"repro/internal/apps/mapreduce"
	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

func runJob(t *testing.T, splits []string, mutate func(*simnet.Net, *workload.Workload)) (*simnet.Net, *workload.Workload) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Core.CheckpointEvery = 0
	cfg.Core.Tbatch = 100 * types.Millisecond // one envelope per map/reduce pair
	net := simnet.New(cfg)
	d := mapreduce.New(mapreduce.Job{
		Mappers:  4,
		Reducers: 2,
		Splits:   splits,
		StartAt:  types.Second,
		ReduceAt: 20 * types.Second,
		Duration: 30 * types.Second,
	})
	if err := net.Deploy(d); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(net, d)
	}
	net.Run(d.Horizon)
	return net, d
}

// outputOwner returns the reducer responsible for a word.
func outputOwner(d *workload.Workload, word string) types.NodeID {
	return mapreduce.Partition(word, mapreduce.Reducers(d.Nodes))
}

func outputsOf(net *simnet.Net, d *workload.Workload) map[string]int64 {
	total := map[string]int64{}
	for _, r := range mapreduce.Reducers(d.Nodes) {
		m := net.Node(r).Machine.(*mapreduce.Machine)
		for w, c := range m.Outputs() {
			total[w] += c
		}
	}
	return total
}

func TestWordCountCorrect(t *testing.T) {
	net, d := runJob(t, []string{
		"the quick brown fox",
		"the lazy dog and the fox",
		"squirrel in the park",
		"a squirrel and a fox",
	}, nil)
	got := outputsOf(net, d)
	want := map[string]int64{"the": 4, "fox": 3, "squirrel": 2, "a": 2, "and": 2}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count(%s) = %d, want %d", w, got[w], c)
		}
	}
}

func TestOutputProvenance(t *testing.T) {
	net, d := runJob(t, []string{
		"squirrel squirrel",
		"one squirrel here",
	}, nil)
	owner := outputOwner(d, "squirrel")
	q := net.QuerierFor(d)
	expl, err := q.Explain(owner, mapreduce.Out(owner, "squirrel", 3), core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v (failures %v)", err, q.Auditor.Failures())
	}
	tree := expl.Format()
	// The output must trace to believed intermediate pairs and, through the
	// shuffle, to the mappers' splits.
	for _, want := range []string{
		"DERIVE(" + string(owner) + ", out(@" + string(owner) + ",squirrel,3), reduce",
		"mapOut(",
		"RECEIVE(",
		"SEND(map-",
		"INSERT(map-",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree lacks %q:\n%s", want, tree)
		}
	}
	if len(expl.FindColor(provgraph.Red)) != 0 {
		t.Errorf("red vertices on a correct job:\n%s", tree)
	}
}

// TestCorruptMapperDetected reproduces §7.3's Hadoop scenario (Figure 4): a
// tampered map worker inflates the count for one word; the output's
// provenance exposes the forged intermediate pair as red.
func TestCorruptMapperDetected(t *testing.T) {
	badMapper := mapreduce.MapperName(1)
	const forgedCount = 9993
	net, d := runJob(t, []string{
		"squirrel in the park",   // map-000
		"nothing to see here",    // map-001 (the corrupt one)
		"a squirrel and a fox",   // map-002
		"the dog chased the fox", // map-003
	}, func(net *simnet.Net, d *workload.Workload) {
		bad := net.Node(badMapper)
		reducer := outputOwner(d, "squirrel")
		injected := false
		bad.Tamper = func(ev types.Event, outs []types.Output) []types.Output {
			if injected || ev.Kind != types.EvIns || ev.Tuple.Rel != "split" {
				return outs
			}
			injected = true
			forged := mapreduce.MapOut(reducer, badMapper, "squirrel", forgedCount)
			return append(outs, types.Output{Kind: types.OutSend, Msg: &types.Message{
				Src: badMapper, Dst: reducer, Pol: types.PolAppear, Tuple: forged,
				SendTime: ev.Time, Seq: 7777,
			}})
		}
	})
	owner := outputOwner(d, "squirrel")
	got := outputsOf(net, d)
	if got["squirrel"] != forgedCount+2 {
		t.Fatalf("squirrel count = %d, want %d", got["squirrel"], forgedCount+2)
	}
	// The analyst queries the suspicious output (Figure 4).
	q := net.QuerierFor(d)
	expl, err := q.Explain(owner, mapreduce.Out(owner, "squirrel", forgedCount+2), core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	faulty := expl.FaultyNodes()
	found := false
	for _, f := range faulty {
		if f == badMapper {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt mapper not identified; faulty = %v\n%s", faulty, expl.Format())
	}
	// The red vertex is the forged send from the corrupt mapper.
	redSend := false
	for _, r := range expl.FindColor(provgraph.Red) {
		if r.Vertex.Type == provgraph.VSend && r.Vertex.Host == badMapper {
			redSend = true
		}
	}
	if !redSend {
		t.Errorf("no red send on %s:\n%s", badMapper, expl.Format())
	}
}

func TestMachineSnapshotRoundTrip(t *testing.T) {
	reducers := []types.NodeID{"red-000", "red-001"}
	m := mapreduce.NewMachine("map-000", mapreduce.Mapper, reducers)
	m.Step(types.Event{Kind: types.EvIns, Node: "map-000", Time: 1,
		Tuple: mapreduce.Split("map-000", 0, "hello world hello")})
	snap := m.Snapshot()
	m2 := mapreduce.NewMachine("map-000", mapreduce.Mapper, reducers)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if string(m2.Snapshot()) != string(snap) {
		t.Error("snapshot not a fixed point")
	}
	// A duplicate split must be ignored by both.
	o1 := m.Step(types.Event{Kind: types.EvIns, Node: "map-000", Time: 2,
		Tuple: mapreduce.Split("map-000", 0, "hello world hello")})
	if len(o1) != 0 {
		t.Error("duplicate split re-processed")
	}
}

func TestPartitionStable(t *testing.T) {
	reducers := []types.NodeID{"red-000", "red-001", "red-002"}
	for _, w := range []string{"squirrel", "fox", "the"} {
		if mapreduce.Partition(w, reducers) != mapreduce.Partition(w, reducers) {
			t.Errorf("partition of %q unstable", w)
		}
	}
}

func TestWordCountTokenizer(t *testing.T) {
	counts := mapreduce.WordCount("The fox, the FOX; (fox)!")
	if counts["fox"] != 3 || counts["the"] != 2 {
		t.Errorf("counts = %v", counts)
	}
}
