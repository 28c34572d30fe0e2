package transport

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/types"
)

// The goroutines Close must reap: every member's accept loop and
// per-connection read loops (Server methods) and the link workers (Cluster
// methods). Matching on the owning types' methods keeps the tests immune to
// runtime/netpoll goroutines (and the test functions themselves).
const (
	servingMarker = "repro/internal/transport.(*Server)."
	linkMarker    = "repro/internal/transport.(*Cluster).linkWorker"
)

// goroutinesIn returns the stacks of goroutines with a frame containing any
// of the markers.
func goroutinesIn(markers ...string) []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var stacks []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		for _, m := range markers {
			if strings.Contains(g, m) {
				stacks = append(stacks, g)
				break
			}
		}
	}
	return stacks
}

func clusterGoroutines() []string { return goroutinesIn(servingMarker, linkMarker) }

// mustMatch fails the test when marker matches no goroutine at a point where
// connections are known to be open: a marker that went stale (the function
// it names was renamed or removed) would otherwise turn every "none left"
// check below into a check of nothing.
func mustMatch(t *testing.T, marker string) {
	t.Helper()
	if len(goroutinesIn(marker)) == 0 {
		t.Fatalf("no goroutine matches %q while connections are open: the leak check is vacuous", marker)
	}
}

// TestClusterCloseReapsGoroutines runs repeated open → serve → traffic →
// close cycles and requires every transport goroutine (accept loops, per-
// connection handlers, link workers) to be gone after each Close. A handler
// or dial goroutine that outlives Close accumulates across the cycles and
// trips the zero check.
func TestClusterCloseReapsGoroutines(t *testing.T) {
	cycles := 5
	if testing.Short() {
		cycles = 3
	}
	for cycle := 0; cycle < cycles; cycle++ {
		func() {
			cluster := NewCluster()
			defer cluster.Close()
			ids, _ := serveTestNodes(t, cluster, 3, "")

			// Real cross-link traffic: base inserts fan out envelopes, ticks
			// flush batches and acks.
			for _, id := range ids {
				for _, other := range ids {
					if other != id {
						_ = cluster.With(id, func(n *core.Node) {
							n.InsertBase(mincost.Link(id, other, 2))
						})
					}
				}
			}
			for i := 0; i < 5; i++ {
				tickAll(cluster, ids)
				time.Sleep(5 * time.Millisecond)
			}
			// Audit RPCs keep server-side handler goroutines busy too.
			f := cluster.NewFetcher("probe")
			defer f.Close()
			for _, id := range ids {
				if _, err := f.LatestAuth(id); err != nil {
					t.Fatalf("cycle %d: LatestAuth(%s): %v", cycle, id, err)
				}
				if _, err := f.Health(id, 0); err != nil {
					t.Fatalf("cycle %d: Health(%s): %v", cycle, id, err)
				}
			}
			mustMatch(t, servingMarker)
			mustMatch(t, linkMarker)
			// One node stopped mid-run: its handlers must drain on StopNode,
			// and the peers' link workers keep backing off against it.
			if err := cluster.StopNode(ids[2]); err != nil {
				t.Fatal(err)
			}
			tickAll(cluster, ids)
		}()
		// After Close every transport goroutine must be gone. Close waits on
		// its WaitGroups, so there is nothing to poll for — but give the
		// scheduler a beat on slow CI before declaring a leak.
		leaked := clusterGoroutines()
		for wait := 0; len(leaked) > 0 && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
			leaked = clusterGoroutines()
		}
		if len(leaked) > 0 {
			t.Fatalf("cycle %d: %d transport goroutines survived Close:\n%s",
				cycle, len(leaked), strings.Join(leaked, "\n\n"))
		}
	}
}

// TestFetcherCloseReleasesConnections pins the fetcher side: Close drops
// every pooled connection, so the server's per-connection handlers exit
// instead of idling on a dead read for the life of the process.
func TestFetcherCloseReleasesConnections(t *testing.T) {
	cluster := NewCluster()
	defer cluster.Close()
	ids, _ := serveTestNodes(t, cluster, 2, "")

	before := len(goroutinesIn(servingMarker))
	fetchers := make([]*RemoteFetcher, 4)
	for i := range fetchers {
		fetchers[i] = cluster.NewFetcher(types.NodeID(fmt.Sprintf("auditor-%d", i)))
		for _, id := range ids {
			if _, err := fetchers[i].Health(id, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(goroutinesIn(servingMarker)) <= before {
		t.Fatal("fetcher traffic spawned no server-side handlers (test is vacuous)")
	}
	for _, f := range fetchers {
		f.Close()
	}
	leaked := -1
	for wait := 0; wait < 100; wait++ {
		if leaked = len(goroutinesIn(servingMarker)) - before; leaked <= 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked > 0 {
		t.Fatalf("%d handler goroutines outlived the fetchers that dialed them", leaked)
	}
}
