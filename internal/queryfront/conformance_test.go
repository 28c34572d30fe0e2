package queryfront_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/queryfront"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestFrontConformance re-proves the §4.2 guarantee through the query
// frontend for the registry's workloads: concurrent remote clients audit a
// live deployment with an armed tamperer and its Victim cut off by a one-way
// partition (data plane and audit traffic alike), and
// every verdict that comes back over the wire is held to the same check as
// an in-process one (Verdict.CheckGuarantee): the tamperer exposed with
// provable evidence, no honest node accused, the partitioned victim parked
// in the unreachable-leads tier.
//
// Every node is then audited on its own, twice over, and both verdicts are held
// to the same check. Under the partition the victim's §5.4 reports cannot be
// merged, so no audit may be answered from the ledger of audited heads; the
// "reachable" cases run the tamperer without the partition, where the second
// audit of every honest node is answered from the ledger and must equal the
// first, and the tamperer's never is.
//
// The partition rows name mincost and quagga; the registry's timed
// workloads, chord and mapreduce, run the reachable case only (what a fault
// plan may do to a timed schedule waits for ROADMAP item 13's liveness
// contract).
func TestFrontConformance(t *testing.T) {
	names := []string{"mincost", "quagga"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name+"/seed=1", func(t *testing.T) { runFrontCase(t, name, 1, true) })
		t.Run(name+"/reachable/seed=1", func(t *testing.T) { runFrontCase(t, name, 1, false) })
	}
	for _, name := range []string{"chord", "mapreduce"} {
		t.Run(name+"/reachable/seed=1", func(t *testing.T) { runFrontCase(t, name, 1, false) })
	}
}

func runFrontCase(t *testing.T, name string, seed int64, partition bool) {
	app, err := live.AppByName(name)
	if err != nil {
		t.Fatal(err)
	}
	profile, ok := adversary.ProfileByName("tamper-log")
	if !ok {
		t.Fatal("tamper-log profile missing from catalog")
	}
	opts := live.Options{Seed: seed, OnNode: profile.On(app.Compromised).Hook()}
	victim := types.NodeID("")
	if partition {
		victim = app.Victim
		opts.Fault = transport.NewFaultPlan(seed, transport.FaultRule{From: "*", To: string(victim), Partition: true})
	}
	h, err := live.New(app, opts)
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
		for _, breach := range res.Verdict().CheckGuarantee(profile.Class, app.Compromised, victim, false) {
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
	if stats.LedgerHits+stats.LedgerMisses != 0 || stats.LedgerBytes != 0 {
		t.Errorf("whole-deployment audits touched the ledger: %v", stats)
	}

	// Every node on its own, twice, the targets side by side.
	var honest uint64
	for _, id := range app.Nodes {
		compromised := slices.Contains(app.Compromised, id)
		if !compromised {
			honest++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := queryfront.Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			var asked [2]*queryfront.AuditResult
			for i := range asked {
				res, err := cl.Audit(id)
				if err != nil {
					t.Errorf("audit of %s: %v", id, err)
					return
				}
				// A verdict on one node owes evidence only when that node is
				// the tamperer, and the cut-off tier only when it is the victim.
				class, cutOff, identical := adversary.Traceable, types.NodeID(""), true
				if compromised {
					class, identical = profile.Class, false
				}
				if id == victim {
					cutOff = victim
				}
				for _, breach := range res.Verdict().CheckGuarantee(class, app.Compromised, cutOff, identical) {
					t.Errorf("audit %d of %s: §4.2 violated: %s\nfailures: %v\nred: %v", i, id, breach, res.Failures, res.RedHosts)
				}
				res.Elapsed = 0
				for j := range res.Unreachable {
					res.Unreachable[j].Err = "" // names the session that asked
				}
				asked[i] = res
			}
			if !reflect.DeepEqual(asked[0], asked[1]) {
				t.Errorf("two audits of %s over an unchanged deployment differ:\n%+v\n%+v", id, asked[0], asked[1])
			}
		}()
	}
	wg.Wait()
	single := srv.Stats()
	t.Logf("front stats after the single-node audits: %v", single)
	if got := single.LedgerHits + single.LedgerMisses; got != 2*uint64(len(app.Nodes)) {
		t.Errorf("ledger counted %d single-node audits, want %d", got, 2*len(app.Nodes))
	}
	if partition {
		if single.LedgerHits != 0 || single.LedgerBytes != 0 {
			t.Errorf("audits over a partial notes merge used the ledger: %v", single)
		}
		if single.NotesSyncErrors == 0 {
			t.Error("no notes-sync error counted with the victim cut off")
		}
	} else if single.LedgerHits != honest {
		t.Errorf("ledger hits = %d, want one per honest node (%d)", single.LedgerHits, honest)
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
	h, err := live.New(app, live.Options{Seed: 1, OnNode: profile.On(app.Compromised).Hook()})
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
