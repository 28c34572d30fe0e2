package queryfront_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
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

// TestFrontSessionParallelism pins the frontend's concurrency contract: a
// session's querier gets the cores the session pool leaves idle. With one
// session on a four-core frontend a whole-deployment audit of an armed
// deployment runs the audit pipeline through the session's RemoteFetcher
// (which is safe for concurrent use) and must return the same conforming
// verdict; with as many sessions as cores the pool already fills the machine
// and every query stays strictly lazy.
func TestFrontSessionParallelism(t *testing.T) {
	const cores = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))

	app, err := live.AppByName("mincost")
	if err != nil {
		t.Fatal(err)
	}
	profile, _ := adversary.ProfileByName("tamper-log")
	h, err := livetcp.New(app, livetcp.Options{Seed: 1, OnNode: profile.On(app.Compromised).Hook()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	h.Settle()

	for _, tc := range []struct{ sessions, want int }{{1, cores}, {cores, 1}, {2 * cores, 1}} {
		t.Run(fmt.Sprintf("sessions=%d", tc.sessions), func(t *testing.T) {
			var mu sync.Mutex
			var seen []int
			srv, err := queryfront.Serve(queryfront.Config{
				Cluster: h.Cluster, Base: h.Cfg, Dir: h.Dir, Factory: app.Factory,
				ConfigureQuerier: func(q *core.Querier) {
					mu.Lock()
					seen = append(seen, q.Parallelism)
					mu.Unlock()
					if app.ConfigureQuerier != nil {
						app.ConfigureQuerier(q)
					}
				},
				Sessions: tc.sessions, QueryTimeout: 20 * time.Second,
			}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := queryfront.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			res, err := cl.Audit()
			if err != nil {
				t.Fatalf("remote audit: %v", err)
			}
			for _, breach := range res.Verdict().CheckGuarantee(profile.Class, app.Compromised, "", false) {
				t.Errorf("§4.2 violated: %s\nfailures: %v\nred: %v", breach, res.Failures, res.RedHosts)
			}
			if len(res.Unreachable) != 0 {
				t.Errorf("unreachable nodes on a healthy network: %v", res.Unreachable)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != 1 || seen[0] != tc.want {
				t.Errorf("querier Parallelism = %v, want [%d]", seen, tc.want)
			}
		})
	}
}
