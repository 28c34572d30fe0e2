package queryfront_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/queryfront"
)

// goroutinesIn returns the stacks of goroutines with a frame containing
// marker (the style of transport's leak test: matching on the owning type's
// methods keeps runtime and test goroutines out of the count).
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

// TestServerCloseReapsGoroutines runs repeated serve → traffic → close
// cycles of a frontend over one live deployment and requires every frontend
// goroutine to be gone after each Close: the session workers (Server methods
// of this package) and the listener's accept and read loops, which are
// transport.Server methods like the deployment's own — so those are held to
// the count the deployment showed before the frontend started. That covers
// the reader of a client that is still connected and idle, and the session
// fetchers' connections, whose node-side read loops must drain too. Both
// markers must match something while a client is connected, or the test
// would be checking nothing.
func TestServerCloseReapsGoroutines(t *testing.T) {
	app, err := live.AppByName("mincost")
	if err != nil {
		t.Fatal(err)
	}
	h, err := live.New(app, live.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	h.Settle()

	const server, handler = "repro/internal/queryfront.(*Server)", "repro/internal/transport.(*Server)."
	settled := func(marker string, atMost int) []string {
		left := goroutinesIn(marker)
		for wait := 0; len(left) > atMost && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
			left = goroutinesIn(marker)
		}
		return left
	}
	handlers := len(goroutinesIn(handler)) // the nodes' accept loops and data-plane links

	cycles := 4
	if testing.Short() {
		cycles = 2
	}
	for cycle := 0; cycle < cycles; cycle++ {
		srv, err := queryfront.Serve(queryfront.Config{
			Cluster: h.Cluster, Base: h.Cfg, Dir: h.Dir, Factory: app.Factory, Sessions: 2,
		}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		idle, err := queryfront.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cl, err := queryfront.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := cl.Audit(); err != nil {
				t.Errorf("cycle %d: audit: %v", cycle, err)
			}
		}
		if _, err := cl.Stats(); err != nil {
			t.Errorf("cycle %d: stats: %v", cycle, err)
		}
		cl.Close()
		if len(goroutinesIn(server)) == 0 || len(goroutinesIn(handler)) <= handlers {
			t.Fatalf("a serving frontend with a client connected shows %d session and %d serving goroutines (%d before it started): the leak check is vacuous",
				len(goroutinesIn(server)), len(goroutinesIn(handler)), handlers)
		}
		srv.Close()
		idle.Close()

		if left := settled(server, 0); len(left) > 0 {
			t.Fatalf("cycle %d: %d frontend goroutines survived Close:\n%s",
				cycle, len(left), strings.Join(left, "\n\n"))
		}
		if left := settled(handler, handlers); len(left) > handlers {
			t.Fatalf("cycle %d: %d serving goroutines left of the closed frontend or its fetchers' node-side connections (had %d):\n%s",
				cycle, len(left), handlers, strings.Join(left, "\n\n"))
		}
	}
}
