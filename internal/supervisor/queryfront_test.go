package supervisor_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/queryfront"
	"repro/internal/supervisor"
	"repro/internal/types"
)

// TestQueryFrontHosting proves the multi-process half of the frontend
// story: `supervise` hosts a query frontend next to the daemons it spawns,
// and remote clients auditing through it get the §4.2 verdict — the
// tamperer provably exposed, honest nodes never accused — without any key
// material of their own (the frontend derives the directory from the app
// exactly as the children do).
func TestQueryFrontHosting(t *testing.T) {
	dir := workDir(t)
	sup, err := supervisor.New(supervisor.Options{
		Dir:  dir,
		Seed: 3,
		App:  "mincost",
		Behaviors: map[types.NodeID][]string{
			"b": {"tamper-log"},
		},
		QueryFront: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(5 * time.Second)

	if err := sup.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Let in-flight commitment exchanges resolve before auditing.
	sup.Settle()

	front := sup.Front()
	if front == nil {
		t.Fatal("Options.QueryFront set but no frontend hosted")
	}

	const clients = 2
	verdicts := make([]*queryfront.AuditResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := queryfront.Dial(front.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			v, err := cl.Audit()
			if err != nil {
				t.Errorf("remote audit: %v", err)
				return
			}
			verdicts[c] = v
		}(c)
	}
	wg.Wait()

	for i, res := range verdicts {
		if res == nil {
			continue // the goroutine already failed the test
		}
		for _, breach := range res.Verdict().CheckGuarantee(adversary.Provable, []types.NodeID{"b"}, "", false) {
			t.Errorf("verdict %d: §4.2 violated: %s\nfailures: %v\nred: %v", i, breach, res.Failures, res.RedHosts)
		}
		if len(res.Unreachable) != 0 {
			t.Errorf("verdict %d: healthy deployment produced unreachable leads: %+v", i, res.Unreachable)
		}
	}

	stats := front.Stats()
	t.Logf("front stats: %v", stats)
	if stats.Served != clients {
		t.Errorf("stats.Served = %d, want %d", stats.Served, clients)
	}
}
