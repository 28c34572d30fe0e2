package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

// queueOf arms id's timeline of w for a fresh start at 0, as the drivers
// do.
func queueOf(w *Workload, id types.NodeID) *Queue {
	var q Queue
	w.ArmNode(&core.Node{ID: id}, false, q.Arm)
	return &q
}

// TestQueueSameInstantOrder: firings due at one instant run in arming
// order, and a periodic action's next firing is armed when the one before
// it fires. P's 2s firing is armed at 1s, after O, so O runs first at 2s.
func TestQueueSameInstantOrder(t *testing.T) {
	var got []string
	log := func(name string) func(*core.Node) { return func(*core.Node) { got = append(got, name) } }
	var w Workload
	w.Every("a", 0, types.Second, 3*types.Second, log("P"))
	w.At("a", 2*types.Second, log("O"))
	q := queueOf(&w, "a")
	for _, now := range []types.Time{0, types.Second, 2 * types.Second, 5 * types.Second} {
		q.Fire(now, nil)
	}
	if want := "[P P O P]"; fmt.Sprint(got) != want {
		t.Errorf("fired %v, want %s", got, want)
	}
	if due, ok := q.Next(); ok {
		t.Errorf("a firing is still armed at %v after P's last one before Until", due)
	}
}

// TestQueueRearmsOnFire: a periodic action holds one armed firing, the next
// one, from the moment the one before it fires; Next reports it.
func TestQueueRearmsOnFire(t *testing.T) {
	fired := 0
	var w Workload
	w.Every("a", 2*types.Second, 3*types.Second, 9*types.Second, func(*core.Node) { fired++ })
	q := queueOf(&w, "a")
	for _, step := range []struct {
		now   types.Time
		fired int
		next  types.Time // 0: nothing armed
	}{
		{0, 0, 2 * types.Second},
		{2 * types.Second, 1, 5 * types.Second},
		{4 * types.Second, 1, 5 * types.Second},
		{5 * types.Second, 2, 8 * types.Second},
		{8 * types.Second, 3, 0}, // 11s is not before Until
	} {
		q.Fire(step.now, nil)
		next, ok := q.Next()
		if !ok {
			next = 0
		}
		if fired != step.fired || next != step.next {
			t.Errorf("at %v: fired %d times, next due %v; want %d, %v", step.now, fired, next, step.fired, step.next)
		}
		if len(q.armed) > 1 {
			t.Errorf("at %v: %d firings armed for one action", step.now, len(q.armed))
		}
	}
}

// TestQueueStallFiresOnce: a driver that stalls across several periods
// fires a periodic action once, and its next firing is the first period
// boundary after the stall, not one per missed period.
func TestQueueStallFiresOnce(t *testing.T) {
	fired := 0
	var w Workload
	w.Every("a", 0, types.Second, types.Minute, func(*core.Node) { fired++ })
	q := queueOf(&w, "a")
	q.Fire(0, nil)
	q.Fire(5*types.Second+types.Second/2, nil)
	if fired != 2 {
		t.Errorf("fired %d times across a stall, want 2", fired)
	}
	if next, _ := q.Next(); next != 6*types.Second {
		t.Errorf("next firing due at %v, want 6s", next)
	}
}

// TestQueueStartAtUntilNeverFires: a periodic action that starts at or
// after Until has no firing, under any driver.
func TestQueueStartAtUntilNeverFires(t *testing.T) {
	var w Workload
	never := func(*core.Node) { t.Error("a periodic action with no firing before Until fired") }
	w.Every("a", 5*types.Second, types.Second, 5*types.Second, never)
	w.Every("a", 7*types.Second, types.Second, 6*types.Second, never)
	q := queueOf(&w, "a")
	if due, ok := q.Next(); ok {
		t.Errorf("a firing is armed at %v", due)
	}
	q.Fire(types.Minute, nil)
}

// TestArmNode: a fresh start arms the whole share; a recovered node calls
// Recovered once, before anything fires, and arms only the periodic
// actions.
func TestArmNode(t *testing.T) {
	var got []string
	log := func(name string) func(*core.Node) { return func(*core.Node) { got = append(got, name) } }
	recovered := 0
	w := Workload{Recovered: func(n *core.Node) {
		recovered++
		got = append(got, "R:"+string(n.ID))
	}}
	w.At("a", types.Second, log("O"))
	w.Every("a", 0, 2*types.Second, types.Minute, log("P"))
	w.At("b", 0, log("B"))
	for _, c := range []struct {
		recovered bool
		want      string
		calls     int
	}{
		{false, "[P O]", 0},
		{true, "[R:a P]", 1},
	} {
		got, recovered = nil, 0
		var q Queue
		w.ArmNode(&core.Node{ID: "a"}, c.recovered, q.Arm)
		q.Fire(types.Second, nil)
		if fmt.Sprint(got) != c.want || recovered != c.calls {
			t.Errorf("recovered=%v: fired %v with %d Recovered calls, want %s and %d",
				c.recovered, got, recovered, c.want, c.calls)
		}
	}
}

// TestCheck: a timeline entry for a node the workload does not list is
// reported, and so is a node without a key seed; a timeline for a listed,
// keyed node is not.
func TestCheck(t *testing.T) {
	w := Workload{Name: "w", Nodes: []types.NodeID{"a"}, KeySeeds: []int64{1}}
	w.At("a", 0, func(*core.Node) {})
	if err := w.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
	unkeyed := w
	unkeyed.Nodes = []types.NodeID{"a", "b"}
	if err := unkeyed.Check(); err == nil {
		t.Error("Check accepted two nodes with one key seed")
	}
	w.Every("z", 0, types.Second, types.Minute, func(*core.Node) {})
	if err := w.Check(); err == nil {
		t.Error("Check accepted a timeline for a node the workload does not list")
	}
}
