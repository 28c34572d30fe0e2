package live

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/seclog"
	"repro/internal/types"
)

// TestCloseFlushesLogs pins Harness.Close's stop path: it closes every
// node's store-backed log, so the directory reopens (seclog.Open, as a later
// process would) at exactly the head each node had when Close was called.
// Before Close closed the logs, the active tails stayed in the write buffer
// and a reopen found a shorter chain.
func TestCloseFlushesLogs(t *testing.T) {
	dir := t.TempDir()
	app := mustApp(t, "mincost")
	h, err := New(app, Options{Seed: 17, LogDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		h.Close()
		t.Fatal(err)
	}
	h.Settle() // quiesce: no append may land between the snapshot and Close

	type head struct {
		seq  uint64
		hash []byte
	}
	heads := make(map[types.NodeID]head)
	for _, id := range app.Nodes {
		if err := h.With(id, func(n *core.Node) {
			heads[id] = head{n.Log.Len(), append([]byte(nil), n.Log.HeadHash()...)}
		}); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()

	for _, id := range app.Nodes {
		rec, err := seclog.Open(dir, id, h.Cfg.Suite, nil, nil, 0)
		if err != nil {
			t.Fatalf("reopening %s: %v", id, err)
		}
		if rec.Len() != heads[id].seq || !bytes.Equal(rec.HeadHash(), heads[id].hash) {
			t.Errorf("%s reopened at head %d, want the pre-close head %d (hash match %v)",
				id, rec.Len(), heads[id].seq, bytes.Equal(rec.HeadHash(), heads[id].hash))
		}
		if rec.RecoveredTornBytes() != 0 {
			t.Errorf("%s: a clean Close left %d torn bytes", id, rec.RecoveredTornBytes())
		}
		if err := rec.Close(); err != nil {
			t.Error(err)
		}
	}
}

// repoGoroutines returns the stacks of goroutines this repository's packages
// started (transport accept loops and link workers, store compactors,
// fetcher dials), identified by their "created by" frame — which keeps the
// test goroutines themselves and the runtime's own out of the count.
func repoGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var stacks []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "created by repro/internal/") {
			stacks = append(stacks, g)
		}
	}
	return stacks
}

// TestCloseReapsGoroutines runs repeated open → traffic → audit → restart →
// close cycles of a store-backed deployment and requires every goroutine the
// harness and the layers under it started to be gone after each Close.
func TestCloseReapsGoroutines(t *testing.T) {
	cycles := 3
	if testing.Short() {
		cycles = 2
	}
	for cycle := 0; cycle < cycles; cycle++ {
		h, err := New(mustApp(t, "mincost"), Options{Seed: int64(20 + cycle), LogDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
			t.Logf("note: %v", err)
		}
		if len(repoGoroutines()) == 0 {
			t.Fatal("a running deployment shows no package goroutines (test is vacuous)")
		}
		adversary.AuditAll(h.NewQuerier(), h.Maint)
		if err := h.Restart("d"); err != nil {
			t.Error(err)
		}
		h.RunFor(50 * time.Millisecond)
		h.Close()

		leaked := repoGoroutines()
		for wait := 0; len(leaked) > 0 && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
			leaked = repoGoroutines()
		}
		if len(leaked) > 0 {
			t.Fatalf("cycle %d: %d goroutines survived Close:\n%s",
				cycle, len(leaked), strings.Join(leaked, "\n\n"))
		}
	}
}
