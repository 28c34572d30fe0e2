package live

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/transport"
	"repro/internal/workload"
)

// mustApp resolves a registry workload.
func mustApp(t *testing.T, name string) *workload.Workload {
	t.Helper()
	app, err := AppByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// querierWithin is h.NewQuerier with a total per-call audit budget shorter
// than transport.AuditRetryDeadline, for the runs whose fault plans keep
// audit calls failing.
func querierWithin(h *Harness, retryDeadline time.Duration) *core.Querier {
	q := h.NewQuerier()
	q.Fetch.(*transport.RemoteFetcher).RetryDeadline = retryDeadline
	return q
}

// TestLiveConformance is the live column of the conformance table
// (adversary.Column): every catalog behaviour on each registry app over
// loopback TCP, fault-free (modifier "none"); tamper-log on mincost and
// quagga at seeds 1 and 2 under each fault plan (and fault-free at seed 2);
// and the adversary-free row, mincost at seed 7 under drop+delay at 5% loss
// (1–8 ms delay, no reordering), where lossy networking alone must never
// produce evidence. Each verdict's outcome
// must equal the simulator's for the row: no honest node accused whatever
// the network does, the compromised node convicted exactly when its
// behaviour is Provable, detection alike, and the partitioned victim an
// unresponsive lead, never a suspect.
//
// The fault plans name mincost and quagga instead of ranging over
// AppNames(): those two react to what they receive, so the next update
// repairs a dropped one, while chord and mapreduce run a timed schedule, and
// what a fault plan may do to such a schedule needs the liveness contract of
// ROADMAP item 13 before a verdict about it means anything.
func TestLiveConformance(t *testing.T) {
	var extra []adversary.Row
	for _, plan := range []string{"", "drop+delay", "partition", "reset+slow-reader"} {
		for _, app := range []string{"mincost", "quagga"} {
			for _, seed := range []int64{1, 2} {
				if plan != "" || seed != 1 { // the catalog's own row
					extra = append(extra, adversary.Row{App: app, Behavior: "tamper-log", Seed: seed,
						Modifier: plan, CutsVictim: plan == "partition"})
				}
			}
		}
	}
	extra = append(extra, adversary.Row{App: "mincost", Behavior: adversary.Honest, Seed: 7, Modifier: "drop+delay"})
	adversary.Column[*testing.T]{Apps: AppNames(), Extra: extra, Short: testing.Short(),
		App: func(name string, _ int64) *workload.Workload { w, _ := AppByName(name); return w },
		Path: func(r adversary.Row) string {
			plan := r.Modifier
			if plan == "" {
				plan = "none"
			}
			return fmt.Sprintf("%s/%s/seed=%d/%s", plan, r.App, r.Seed, r.Behavior)
		},
		Drive: driveLive}.Run(t)
}

// driveLive runs one row on a Harness under its fault plan and sweeps it
// over the wire.
func driveLive(t *testing.T, row adversary.Row, app *workload.Workload) *adversary.Verdict {
	opts := Options{Seed: row.Seed, OnNode: row.Plan(app).Hook()}
	switch row.Modifier {
	case "drop+delay":
		rule := transport.FaultRule{From: "*", To: "*", Drop: 0.03,
			DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond, Reorder: 0.02}
		if row.Behavior == adversary.Honest {
			// Losses alone must never accuse: the adversary-free row runs lossier.
			rule.Drop, rule.DelayMax, rule.Reorder = 0.05, 8*time.Millisecond, 0
		}
		opts.Fault = transport.NewFaultPlan(row.Seed, rule)
	case "partition":
		// One-way: everything sent to the victim — data plane and audit
		// retrievals alike — vanishes, while its own announcements still
		// propagate.
		opts.Fault = transport.NewFaultPlan(row.Seed, transport.FaultRule{From: "*", To: string(app.Victim), Partition: true})
	case "reset+slow-reader":
		opts.Fault = transport.NewFaultPlan(row.Seed, transport.FaultRule{From: "*", To: "*",
			ResetEvery: 7, StallEvery: 9, StallFor: 600 * time.Millisecond})
		cfg := transport.DefaultConfig()
		cfg.WriteTimeout = 250 * time.Millisecond // stalls must trip it
		cfg.RetryMax = 300 * time.Millisecond
		opts.Transport = &cfg
	}
	h, err := New(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Convergence is best-effort: a fault plan or a behaviour may keep
	// updates from some node, but must never corrupt the verdict.
	start := time.Now()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Logf("note: %v", err)
	}
	converge := time.Since(start)
	h.Settle()

	q := querierWithin(h, time.Second)
	auditStart := time.Now()
	v := adversary.Sweep(q, h.Maint, nil, time.Now().Add(2*time.Second), 300*time.Millisecond)
	stats := h.Cluster.Stats()
	t.Logf("live verdict: %v; unreachable: %v; converge=%v audit=%v frames=%d drops=%d reconnects=%d",
		v, q.Unreachable(), converge.Round(time.Millisecond), time.Since(auditStart).Round(time.Millisecond),
		stats.FramesSent, stats.Dropped(), stats.Reconnects)
	if stats.FramesSent == 0 {
		t.Error("no frames crossed the wire — the run did not exercise TCP")
	}
	return v
}

// TestLiveQuerierDegradation pins the query-level view of a partition: an
// Explain that needs an unreachable node's log must return yellow
// boundary vertices (with Unreachable recording why), never red, and
// ForgetUnreachable + a healed network must upgrade the same query.
func TestLiveQuerierDegradation(t *testing.T) {
	app := mustApp(t, "mincost")
	fault := transport.NewFaultPlan(3, transport.FaultRule{
		From: "auditor", To: "d", Partition: true,
	})
	h, err := New(app, Options{Seed: 3, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatal(err) // only the audit link is cut; the workload must converge
	}
	h.Settle()

	q := querierWithin(h, 700*time.Millisecond)
	if err := q.EnsureAudited("d", 0); err == nil {
		t.Fatal("audit of a partitioned node succeeded")
	}
	unreachable := q.Unreachable()
	if _, ok := unreachable["d"]; !ok {
		t.Fatalf("d missing from Unreachable: %v", unreachable)
	}
	if err := q.EnsureAudited("c", 0); err != nil {
		t.Fatalf("audit of reachable node failed: %v", err)
	}

	// Heal the partition (a fresh fetcher dials outside the plan's rule
	// by using a different querier identity) and retry.
	q.ForgetUnreachable("d")
	if _, ok := q.Unreachable()["d"]; ok {
		t.Fatal("ForgetUnreachable left d marked")
	}
	f2 := h.Cluster.NewFetcher("auditor2")
	defer f2.Close()
	q.Fetch = f2
	if err := q.EnsureAudited("d", 0); err != nil {
		t.Fatalf("audit after heal failed: %v", err)
	}
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain after heal: %v", err)
	}
	if reds := expl.FindColor(provgraph.Red); len(reds) != 0 {
		t.Errorf("red vertices on an honest run after heal:\n%s", expl.Format())
	}
}
