package supervisor_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/supervisor"
)

// goroutinesIn returns the stacks of goroutines with a frame containing
// marker (the style of transport's and queryfront's leak tests).
func goroutinesIn(marker string) []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var stacks []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, marker) {
			stacks = append(stacks, g)
		}
	}
	return stacks
}

// TestStopReapsGoroutines stops a supervisor that hosts a frontend while one
// child is dead and its respawn is waiting out a long backoff, and requires
// every goroutine the deployment started to be gone: the monitor, the
// per-child wait goroutines and the parked onExit (Supervisor methods), the
// frontend's sessions, and anything inside the probe cluster's callers,
// servers and links. Each marker that must match while the deployment runs
// is checked too, so a renamed function cannot turn this into a check of
// nothing.
func TestStopReapsGoroutines(t *testing.T) {
	s, err := supervisor.New(supervisor.Options{
		Dir: workDir(t), Seed: 1, App: "mincost",
		BackoffBase: 30 * time.Second, BackoffMax: 30 * time.Second,
		QueryFront: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			s.Stop(5 * time.Second)
		}
	}()
	if err := s.WaitHealthy(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Kill(s.Deployment().App.Nodes[0]); err != nil {
		t.Fatal(err)
	}
	const sup = "repro/internal/supervisor.(*Supervisor)."
	for _, running := range []string{sup + "monitor", sup + "onExit", sup + "spawnLocked",
		"repro/internal/queryfront.(*Server).session", "repro/internal/transport.(*Server).accept"} {
		deadline := time.Now().Add(5 * time.Second)
		for len(goroutinesIn(running)) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no goroutine matches %q in a running deployment with a dead child: the leak check is vacuous", running)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	start := time.Now()
	if err := s.Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stopped = true
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("Stop took %v", took)
	}
	for _, marker := range []string{sup, "repro/internal/queryfront.(*Server)", "repro/internal/transport.(*Caller)",
		"repro/internal/transport.(*Server)", "repro/internal/transport.(*Cluster)"} {
		left := goroutinesIn(marker)
		for wait := 0; len(left) > 0 && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
			left = goroutinesIn(marker)
		}
		if len(left) > 0 {
			t.Errorf("%d goroutines in %s survived Stop:\n%s", len(left), marker, strings.Join(left, "\n\n"))
		}
	}
}
