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
	"repro/internal/workload"
)

// TestFrontConformance is the query frontend's column of the conformance
// table (adversary.Column): every catalog behaviour on each registry app,
// fault-free ("reachable"), and tamper-log on mincost and quagga with the
// app's Victim cut off by a one-way partition (data plane and audit traffic
// alike). Concurrent remote clients audit the deployment through one
// frontend, and every verdict that comes back over the wire must have the
// simulator's outcome for the row, the partitioned victim parked in the
// unreachable-leads tier.
//
// The frontend's own checks ride along: the six whole audits are served and
// hit the shared persistent cache but never the ledger of audited heads;
// every node is then audited on its own, twice, both verdicts equal and
// accusing no honest node. Under the partition the victim's §5.4 reports
// cannot be merged, so no such audit may be answered from the ledger;
// fault-free, the second audit of a node is exactly when the first found
// nothing (tamper-log: every honest node's, never the tamperer's). On mincost one Explain over the wire names no honest
// node faulty.
//
// The partition rows name mincost and quagga; what a fault plan may do to
// the timed workloads, chord and mapreduce, waits for ROADMAP item 13's
// liveness contract.
func TestFrontConformance(t *testing.T) {
	var partitioned []adversary.Row
	for _, app := range []string{"mincost", "quagga"} {
		partitioned = append(partitioned, adversary.Row{App: app, Behavior: "tamper-log", Seed: 1, Modifier: "partition", CutsVictim: true})
	}
	adversary.Column[*testing.T]{Apps: live.AppNames(), Extra: partitioned, Short: testing.Short(),
		App: func(name string, _ int64) *workload.Workload { w, _ := live.AppByName(name); return w },
		Path: func(r adversary.Row) string {
			if r.Modifier == "" {
				return fmt.Sprintf("%s/reachable/seed=%d/%s", r.App, r.Seed, r.Behavior)
			}
			return fmt.Sprintf("%s/seed=%d/%s", r.App, r.Seed, r.Behavior)
		},
		Drive: driveFront}.Run(t)
}

// driveFront deploys one row live, serves a frontend over its cluster and
// audits the deployment through it.
func driveFront(t *testing.T, row adversary.Row, app *workload.Workload) *adversary.Verdict {
	opts := live.Options{Seed: row.Seed, OnNode: row.Plan(app).Hook()}
	victim := types.NodeID("")
	if row.CutsVictim {
		victim = app.Victim
		opts.Fault = transport.NewFaultPlan(row.Seed, transport.FaultRule{From: "*", To: string(victim), Partition: true})
	}
	h, err := live.New(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Convergence is best-effort under a partition or a behaviour; it must
	// never corrupt the verdict.
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Logf("note: %v", err)
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
	compromised := row.Compromised(app)
	first := verdicts[0].Verdict()
	for i, res := range verdicts[1:] {
		if got, want := res.Verdict().Outcome(compromised), first.Outcome(compromised); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("verdict %d: outcome %+v, the first verdict's %+v", i+1, got, want)
		}
	}

	stats := srv.Stats()
	t.Logf("front verdict: %v; stats: %v", first, stats)
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
	var clean uint64
	for _, id := range app.Nodes {
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
				// the tamperer (the catalog's other behaviours need not show
				// in one node's audit), and the cut-off tier only when it is
				// the victim; none accuses an honest node.
				class, cutOff, identical := adversary.Traceable, types.NodeID(""), true
				if slices.Contains(compromised, id) && row.Behavior == "tamper-log" {
					class, identical = adversary.Provable, false
				}
				if id == victim {
					cutOff = victim
				}
				for _, breach := range res.Verdict().CheckGuarantee(class, compromised, cutOff, identical) {
					t.Errorf("audit %d of %s: §4.2 violated: %s\nfailures: %v\nred: %v", i, id, breach, res.Failures, res.RedHosts)
				}
				if i == 0 && len(res.Failures)+len(res.RedHosts)+len(res.Unreachable) == 0 {
					mu.Lock()
					clean++
					mu.Unlock()
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
	if victim != "" {
		if single.LedgerHits != 0 || single.LedgerBytes != 0 {
			t.Errorf("audits over a partial notes merge used the ledger: %v", single)
		}
		if single.NotesSyncErrors == 0 {
			t.Error("no notes-sync error counted with the victim cut off")
		}
	} else if single.LedgerHits != clean {
		t.Errorf("ledger hits = %d, want one per node whose first audit found nothing (%d)", single.LedgerHits, clean)
	} else if honest := len(app.Nodes) - len(compromised); row.Behavior == "tamper-log" && clean != uint64(honest) {
		t.Errorf("%d single-node audits found nothing, want one per honest node (%d)", clean, honest)
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
		switch {
		case err != nil:
			// The tuple may not exist if the row kept mincost from
			// converging; that is a checked answer, not a failure.
			if !errors.Is(err, queryfront.ErrOverloaded) {
				t.Logf("note: explain: %v", err)
			}
		case res.Rendered == "" || res.Vertices == 0:
			t.Errorf("explain returned an empty tree: %+v", res)
		default:
			faulty := &adversary.Verdict{RedHosts: res.Faulty}
			if accused := faulty.FalselyAccused(compromised); len(accused) != 0 {
				t.Errorf("explain names honest nodes %v as faulty", accused)
			}
			t.Logf("explain: %d vertices, faulty=%v, unreachable=%v", res.Vertices, res.Faulty, res.Unreachable)
		}
	}
	return first
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
