package queryfront_test

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/livetcp"
	"repro/internal/queryfront"
	"repro/internal/transport"
)

// TestFrontConformance re-proves the §4.2 guarantee through the query
// frontend for every registry workload: concurrent remote clients audit a
// live deployment with an armed tamperer and its Victim cut off by a one-way
// partition (data plane and audit traffic alike), and
// every verdict that comes back over the wire is held to the same check as
// an in-process one (Verdict.CheckGuarantee): the tamperer exposed with
// provable evidence, no honest node accused, the partitioned victim parked
// in the unreachable-leads tier.
func TestFrontConformance(t *testing.T) {
	names := live.AppNames()
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name+"/seed=1", func(t *testing.T) { runFrontCase(t, name, 1) })
	}
}

func runFrontCase(t *testing.T, name string, seed int64) {
	app, err := live.AppByName(name)
	if err != nil {
		t.Fatal(err)
	}
	profile, ok := adversary.ProfileByName("tamper-log")
	if !ok {
		t.Fatal("tamper-log profile missing from catalog")
	}
	h, err := livetcp.New(app, livetcp.Options{
		Seed:   seed,
		Fault:  transport.NewFaultPlan(seed, transport.FaultRule{From: "*", To: string(app.Victim), Partition: true}),
		OnNode: profile.On(app.Compromised).Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Convergence is best-effort under the partition; it must never
	// corrupt the verdict.
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Logf("note: %v (acceptable under a partition)", err)
	}
	h.Settle()

	// The frontend shares the deployment's cluster and a persistent audit
	// cache across all its sessions.
	cache, err := core.OpenAuditCache(filepath.Join(t.TempDir(), "qfcache"), h.Cfg.Suite)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	base := h.Cfg
	base.AuditCache = cache
	srv, err := queryfront.Serve(queryfront.Config{
		Cluster: h.Cluster, Base: base, Dir: h.Dir,
		Factory: app.Factory, ConfigureQuerier: app.ConfigureQuerier,
		Sessions: 3, QueueLen: 12,
		QueryTimeout: 20 * time.Second,
		CallTimeout:  400 * time.Millisecond, RetryDeadline: 900 * time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, perClient = 3, 2
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		verdicts []*queryfront.AuditResult
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := queryfront.Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				v, err := cl.Audit()
				if err != nil {
					t.Errorf("remote audit: %v", err)
					return
				}
				mu.Lock()
				verdicts = append(verdicts, v)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(verdicts) != clients*perClient {
		t.Fatalf("got %d verdicts, want %d", len(verdicts), clients*perClient)
	}
	for i, res := range verdicts {
		for _, breach := range res.Verdict().CheckGuarantee(profile.Class, app.Compromised, app.Victim, false) {
			t.Errorf("verdict %d: §4.2 violated: %s\nfailures: %v\nred: %v", i, breach, res.Failures, res.RedHosts)
		}
	}

	stats := srv.Stats()
	t.Logf("front stats: %v", stats)
	if stats.Served != clients*perClient {
		t.Errorf("stats.Served = %d, want %d", stats.Served, clients*perClient)
	}
	if stats.CacheHits == 0 {
		t.Error("six audits over a shared persistent cache recorded no hits")
	}

	// One Explain macroquery over the wire: the converged route on a
	// reachable honest node renders a tree without provable evidence
	// against honest nodes.
	if app.Name == "mincost" {
		cl, err := queryfront.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		res, err := cl.Explain(queryfront.ExplainRequest{
			Node:  "c",
			Tuple: mincost.BestCost("c", "d", 5),
			Scope: 8,
		})
		if err != nil {
			// The tuple may not exist if the partition kept mincost from
			// converging; that is a checked answer, not a failure.
			if !errors.Is(err, queryfront.ErrOverloaded) {
				t.Logf("note: explain: %v", err)
			}
			return
		}
		if res.Rendered == "" || res.Vertices == 0 {
			t.Errorf("explain returned an empty tree: %+v", res)
		}
		faulty := &adversary.Verdict{RedHosts: res.Faulty}
		if accused := faulty.FalselyAccused(app.Compromised); len(accused) != 0 {
			t.Errorf("explain names honest nodes %v as faulty", accused)
		}
		t.Logf("explain: %d vertices, faulty=%v, unreachable=%v", res.Vertices, res.Faulty, res.Unreachable)
	}
}
