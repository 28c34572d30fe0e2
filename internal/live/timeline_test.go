package live

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/workload"
)

// armed returns a node whose schedule holds w's timeline for id, armed in
// slice order as Seed arms a fresh node's.
func armed(w *workload.Workload, id types.NodeID) *Node {
	n := &Node{ID: id}
	for _, a := range w.Timeline[id] {
		n.timeline.Arm(a)
	}
	return n
}

// TestFireTimeline drives Node.fire directly, the wall clock replaced by
// moving the node's seeding time into the past: the wall-clock offset a
// live node hands its workload.Queue, which the simulator fires at virtual
// time (simnet's TestPeriodicReschedulesOnFire).
func TestFireTimeline(t *testing.T) {
	const hour = types.Time(time.Hour)
	fired := make(map[string]int)
	count := func(name string) func(*core.Node) { return func(*core.Node) { fired[name]++ } }
	var w workload.Workload
	w.At("n", 0, count("at-0"))
	w.Every("n", 0, hour, 10*hour, count("hourly"))
	w.At("n", 2*hour, count("at-2h"))
	w.Every("n", 5*hour, hour, 5*hour, count("empty")) // start >= until: never, as under the simulator
	w.Every("n", 7*hour, hour, 6*hour, count("empty"))
	n := armed(&w, "n")

	for _, step := range []struct {
		elapsed types.Time
		want    map[string]int
	}{
		{0, map[string]int{"at-0": 1, "hourly": 1}},
		{0, map[string]int{"at-0": 1, "hourly": 1}}, // nothing is due twice
		{hour, map[string]int{"at-0": 1, "hourly": 2}},
		{hour + hour/2, map[string]int{"at-0": 1, "hourly": 2}},
		// A stall that spans several periods fires once, and the next firing
		// is the next period boundary after it, not one per missed period.
		{5*hour + hour/2, map[string]int{"at-0": 1, "at-2h": 1, "hourly": 3}},
		{5*hour + hour*3/4, map[string]int{"at-0": 1, "at-2h": 1, "hourly": 3}},
		{6 * hour, map[string]int{"at-0": 1, "at-2h": 1, "hourly": 4}},
		{9 * hour, map[string]int{"at-0": 1, "at-2h": 1, "hourly": 5}},
		// 10h is not before Until.
		{20 * hour, map[string]int{"at-0": 1, "at-2h": 1, "hourly": 5}},
	} {
		n.seeded = time.Now().Add(-time.Duration(step.elapsed))
		n.fire(nil)
		for _, name := range []string{"at-0", "at-2h", "hourly", "empty"} {
			if fired[name] != step.want[name] {
				t.Errorf("at %v: %s fired %d times, want %d", time.Duration(step.elapsed), name, fired[name], step.want[name])
			}
		}
	}
	if due, ok := n.timeline.Next(); ok {
		t.Errorf("a firing is still armed, due at %v, with every action fired or past its Until", time.Duration(due))
	}
}

// TestFireSameInstantOrder holds fire to the timeline order rule
// (workload.Workload.Timeline) that simnet's TestTimelineSameInstantOrder
// pins: P's 2s firing is armed when its 1s firing runs, after O, so O fires
// first at 2s, as under the simulator.
func TestFireSameInstantOrder(t *testing.T) {
	var got []string
	log := func(name string) func(*core.Node) { return func(*core.Node) { got = append(got, name) } }
	var w workload.Workload
	w.Every("a", 0, types.Second, 3*types.Second, log("P"))
	w.At("a", 2*types.Second, log("O"))
	n := armed(&w, "a")
	for _, elapsed := range []types.Time{0, types.Second, 2 * types.Second} {
		n.seeded = time.Now().Add(-time.Duration(elapsed))
		n.fire(nil)
	}
	if want := "[P P O P]"; fmt.Sprint(got) != want {
		t.Errorf("timeline fired as %v, want %s", got, want)
	}
}

// TestSeedAfterRecoveryResumesPeriodicOnly: a fresh node's Seed starts its
// whole timeline, while the Seed of a node restarted through crash recovery
// re-fires no one-shot action — those inputs are in the recovered log — and
// resumes the periodic ones.
func TestSeedAfterRecoveryResumesPeriodicOnly(t *testing.T) {
	app := mustApp(t, "mincost")
	var once, periodic int
	app.At("d", 0, func(*core.Node) { once++ })
	app.Every("d", 0, types.Millisecond, math.MaxInt64, func(*core.Node) { periodic++ })
	h, err := New(app, Options{Seed: 19, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if once != 1 || periodic != 1 {
		t.Fatalf("after Seed: one-shot fired %d times, periodic %d, want 1 and 1", once, periodic)
	}
	if err := h.Restart("d"); err != nil {
		t.Fatal(err)
	}
	if once != 1 {
		t.Errorf("one-shot action fired %d times across a recovery, want 1", once)
	}
	if periodic != 2 {
		t.Errorf("periodic action fired %d times, want 2 (once per Seed)", periodic)
	}
}
