package queryfront_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/livetcp"
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
// goroutine (accept loop, per-connection readers and their shutdown
// watchers, session workers) to be gone after each Close — including the
// reader of a client that is still connected and idle — and the session
// fetchers' connections to be released, so the deployment's own inbound
// handlers drain back to where they were.
func TestServerCloseReapsGoroutines(t *testing.T) {
	app, err := live.AppByName("mincost")
	if err != nil {
		t.Fatal(err)
	}
	h, err := livetcp.New(app, livetcp.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	h.Settle()

	const server, handler = "repro/internal/queryfront.(*Server)", "repro/internal/transport.(*Cluster).serveConn"
	settled := func(marker string, atMost int) []string {
		left := goroutinesIn(marker)
		for wait := 0; len(left) > atMost && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
			left = goroutinesIn(marker)
		}
		return left
	}
	handlers := len(goroutinesIn(handler)) // the nodes' own data-plane links

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
		if len(goroutinesIn(server)) == 0 {
			t.Fatal("a serving frontend shows no goroutines (test is vacuous)")
		}
		srv.Close()
		idle.Close()

		if left := settled(server, 0); len(left) > 0 {
			t.Fatalf("cycle %d: %d frontend goroutines survived Close:\n%s",
				cycle, len(left), strings.Join(left, "\n\n"))
		}
		if left := settled(handler, handlers); len(left) > handlers {
			t.Fatalf("cycle %d: %d node-side handlers still serve the closed frontend's fetchers (had %d):\n%s",
				cycle, len(left), handlers, strings.Join(left, "\n\n"))
		}
	}
}
