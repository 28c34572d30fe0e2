package simnet_test

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// runDigest captures every deterministic observable of a finished run: the
// full traffic meter (Go formats maps in sorted key order), the log totals,
// the crypto operation counts (minus cache hits, which depend on what
// earlier runs in the same process left in the shared verification cache),
// the maintainer notification count, and — strongest of all — every node's
// log head hash, which commits to that node's entire execution history.
func runDigest(net *simnet.Net) string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic=%+v\n", *net.Traffic)
	fmt.Fprintf(&b, "logstats=%+v\n", net.LogStats())
	cs := net.CryptoStats()
	cs.VerifyCacheHits = 0
	fmt.Fprintf(&b, "crypto=%+v\n", cs)
	fmt.Fprintf(&b, "notified=%d\n", net.Maintainer.Count())
	for _, id := range net.Nodes() {
		fmt.Fprintf(&b, "head[%s]=%s\n", id, hex.EncodeToString(net.Node(id).Log.HeadHash()))
	}
	return b.String()
}

// runMinCostWorkers runs the Figure 2 deployment under the given worker
// count with both kinds of input a scenario can add: timeline actions on two
// nodes due at the same instant, each on its own shard (the a–e link fails at
// 10s), and inputs injected with AtNode between two Run calls (the b–d link
// fails at 20s) — one action per endpoint either way.
func runMinCostWorkers(t *testing.T, workers int, seed int64) *simnet.Net {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Workers = workers
	cfg.Seed = seed
	net := simnet.New(cfg)
	w := figure2()
	w.At("a", 10*types.Second, func(n *core.Node) { n.DeleteBase(mincost.Link("a", "e", 1)) })
	w.At("e", 10*types.Second, func(n *core.Node) { n.DeleteBase(mincost.Link("e", "a", 1)) })
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(15 * types.Second)
	retract := func(id, peer types.NodeID) {
		node := net.Node(id)
		if err := net.AtNode(id, 20*types.Second, func() { node.DeleteBase(mincost.Link(id, peer, 3)) }); err != nil {
			t.Fatal(err)
		}
	}
	retract("b", "d")
	retract("d", "b")
	net.Run(30 * types.Second)
	return net
}

// TestShardedSchedulerMatchesSerial pins the tentpole determinism contract:
// the sharded conservative-window scheduler must reproduce the serial
// single-worker reference bit-for-bit — same traffic meters, same log
// contents (head hashes), same crypto counts — for every worker count and
// across seeds.
func TestShardedSchedulerMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := runDigest(runMinCostWorkers(t, 1, seed))
			for _, workers := range []int{2, 4, 8} {
				got := runDigest(runMinCostWorkers(t, workers, seed))
				if got != ref {
					t.Errorf("workers=%d diverged from serial reference:\nserial:\n%s\nsharded:\n%s",
						workers, ref, got)
				}
			}
		})
	}
}

// TestShardedQueryAnswersMatchSerial runs the full audit digest (vertex
// sets, colors, edges, metrics) over a serial and a sharded run: the
// reconstructed provenance graph is a pure function of the logs, so it too
// must be identical.
func TestShardedQueryAnswersMatchSerial(t *testing.T) {
	serial := digestAudit(t, runMinCostWorkers(t, 1, 1), false)
	sharded := digestAudit(t, runMinCostWorkers(t, 8, 1), false)
	if serial.vertices != sharded.vertices {
		t.Errorf("vertex sets differ:\nserial:\n%s\nsharded:\n%s", serial.vertices, sharded.vertices)
	}
	if serial.edges != sharded.edges {
		t.Errorf("edge counts differ: serial=%d sharded=%d", serial.edges, sharded.edges)
	}
	if serial.metrics != sharded.metrics {
		t.Errorf("metrics differ:\nserial:   %s\nsharded: %s", serial.metrics, sharded.metrics)
	}
	if serial.failures != sharded.failures {
		t.Errorf("failures differ:\nserial:\n%s\nsharded:\n%s", serial.failures, sharded.failures)
	}
}

// TestPeriodicReschedulesOnFire pins the reschedule-on-fire contract under
// the simulator: a periodic action fires at start, start+i·interval strictly
// below Until, each firing at its due time, and a later Run resumes cleanly.
func TestPeriodicReschedulesOnFire(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.TickEvery = 0 // no node ticks; only the action under test
	net := simnet.New(cfg)
	var fired []types.Time
	w := figure2()
	w.Every("c", 2*types.Second, 3*types.Second, 14*types.Second, func(*core.Node) {
		fired = append(fired, net.Now())
	})
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(6 * types.Second)
	net.Run(20 * types.Second)
	want := []types.Time{2 * types.Second, 5 * types.Second, 8 * types.Second, 11 * types.Second}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("periodic fired at %v, want %v", fired, want)
	}
}

// TestTimelineSameInstantOrder pins the simulator half of the timeline
// order rule (workload.Workload.Timeline): a node's actions fire by due
// time, then in the order their firings were armed. P's 2s firing is armed
// when its 1s firing runs, after Deploy armed O, so O fires first at 2s.
// live's TestFireSameInstantOrder holds the wall-clock driver to the same
// order.
func TestTimelineSameInstantOrder(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig())
	var got []string
	log := func(name string) func(*core.Node) {
		return func(*core.Node) { got = append(got, fmt.Sprintf("%s@%d", name, int64(net.Now()/types.Second))) }
	}
	w := figure2()
	w.Every("a", 0, types.Second, 3*types.Second, log("P"))
	w.At("a", 2*types.Second, log("O"))
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(5 * types.Second)
	if want := "[P@0 P@1 O@2 P@2]"; fmt.Sprint(got) != want {
		t.Errorf("timeline fired as %v, want %s", got, want)
	}
}

// storeBacked is a simulator over store-backed logs under dir, each node
// reopening its store through crash recovery when recover is set.
func storeBacked(dir string, recover bool) *simnet.Net {
	cfg := simnet.DefaultConfig()
	cfg.Core.LogDir = dir
	cfg.Core.LogRecover = recover
	return simnet.New(cfg)
}

// TestRedeployResumesPeriodicOnly mirrors live's
// TestSeedAfterRecoveryResumesPeriodicOnly under the simulator: a
// store-backed Deploy fires its whole timeline, while a redeploy that
// recovers the closed stores calls Recovered once per node, re-fires no
// one-shot action — those inputs are in the recovered logs — and resumes
// the periodic ones.
func TestRedeployResumesPeriodicOnly(t *testing.T) {
	dir := t.TempDir()
	w := figure2()
	var once, periodic int
	recovered := make(map[types.NodeID]int)
	w.At("d", 0, func(*core.Node) { once++ })
	w.Every("d", 0, types.Minute, 10*types.Minute, func(*core.Node) { periodic++ })
	w.Recovered = func(n *core.Node) { recovered[n.ID]++ }
	for round, recover := range []bool{false, true} {
		net := storeBacked(dir, recover)
		if err := net.Deploy(w); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		net.Run(5 * types.Second)
		if err := net.CloseLogs(); err != nil {
			t.Fatal(err)
		}
	}
	if once != 1 {
		t.Errorf("one-shot action fired %d times across a recovery, want 1", once)
	}
	if periodic != 2 {
		t.Errorf("periodic action fired %d times, want 2 (once per Deploy)", periodic)
	}
	for _, id := range w.Nodes {
		if recovered[id] != 1 {
			t.Errorf("Recovered called %d times on %s, want once, by the recovering Deploy", recovered[id], id)
		}
	}
}

// TestTornStoreNamesNode: a redeploy over a store whose tail header is cut
// short fails with an error that names the node and its store file.
func TestTornStoreNamesNode(t *testing.T) {
	dir := t.TempDir()
	w := figure2()
	net := storeBacked(dir, false)
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	if err := net.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	// Nothing ran, so c's tail file is its header alone.
	path := filepath.Join(dir, "c.seglog")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	redeployed := storeBacked(dir, true)
	err = redeployed.Deploy(figure2())
	_ = redeployed.CloseLogs() // the nodes before c stay deployed
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "deploying c") {
		t.Fatalf("redeploy over a torn header: error %v, want one naming c and %s", err, path)
	}
}

// TestEveryEventHasANode pins the scheduler's one event class from the
// outside: an input for a node the deployment does not have is reported, by
// AtNode and by Deploy for one-shot and periodic actions alike, never
// dropped or run at a barrier.
func TestEveryEventHasANode(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig())
	w := figure2()
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	if err := net.AtNode("z", types.Second, func() { t.Error("an event without a node ran") }); err == nil {
		t.Error("AtNode on an unknown node returned no error")
	}
	if err := net.AtNode("c", types.Second, func() {}); err != nil {
		t.Errorf("AtNode on a deployed node: %v", err)
	}
	net.Run(2 * types.Second)

	do := func(*core.Node) {}
	for _, arm := range []func(*workload.Workload){
		func(w *workload.Workload) { w.At("z", types.Second, do) },
		func(w *workload.Workload) { w.Every("z", types.Second, types.Second, 3*types.Second, do) },
	} {
		w = figure2()
		arm(w)
		if err := simnet.New(simnet.DefaultConfig()).Deploy(w); err == nil {
			t.Error("Deploy accepted a timeline for a node the workload does not list")
		}
	}
}
