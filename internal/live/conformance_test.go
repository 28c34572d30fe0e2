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
	"repro/internal/types"
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

// faultPlan is one row of the live fault matrix. cutsVictim marks the plan
// that cuts the app's Victim off (rules receives it); the guarantee demands
// such a node surface as an unattributable lead, never as provable evidence.
type faultPlan struct {
	name       string
	cutsVictim bool
	rules      func(victim types.NodeID) []transport.FaultRule
	tcfg       func() *transport.Config
}

// victim returns the node the plan cuts off in app ("" when none).
func (fp faultPlan) victim(app *workload.Workload) types.NodeID {
	if fp.cutsVictim {
		return app.Victim
	}
	return ""
}

func faultPlans() []faultPlan {
	return []faultPlan{
		{
			name:  "none",
			rules: func(types.NodeID) []transport.FaultRule { return nil },
		},
		{
			name: "drop+delay",
			rules: func(types.NodeID) []transport.FaultRule {
				return []transport.FaultRule{{
					From: "*", To: "*",
					Drop:     0.03,
					DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond,
					Reorder: 0.02,
				}}
			},
		},
		{
			// One-way partition of an honest node: everything sent to it —
			// data plane and audit retrievals alike — vanishes. Chosen so
			// its own announcements still propagate (outbound is open).
			name:       "partition",
			cutsVictim: true,
			rules: func(victim types.NodeID) []transport.FaultRule {
				return []transport.FaultRule{{From: "*", To: string(victim), Partition: true}}
			},
		},
		{
			name: "reset+slow-reader",
			rules: func(types.NodeID) []transport.FaultRule {
				return []transport.FaultRule{{
					From: "*", To: "*",
					ResetEvery: 7,
					StallEvery: 9, StallFor: 600 * time.Millisecond,
				}}
			},
			tcfg: func() *transport.Config {
				cfg := transport.DefaultConfig()
				cfg.WriteTimeout = 250 * time.Millisecond // stalls must trip it
				cfg.RetryMax = 300 * time.Millisecond
				return &cfg
			},
		},
	}
}

// TestLiveConformance reruns the adversary conformance slice over loopback
// TCP under the fault-plan matrix (its fault-free row included):
// tamper-log (a Provable behavior) armed on the app's compromised node,
// across fault plans × {mincost, quagga} × 2 seeds, plus chord and mapreduce
// on the fault-free plan at one seed, each verdict held to the §4.2
// guarantee's live form by the one check (Verdict.CheckGuarantee):
//
//   - provable evidence (audit failures, red hosts) never names an honest
//     node, no matter what the network does;
//   - the armed node is still provably exposed;
//   - honest nodes the plan makes unreachable degrade to the verdict's
//     Unresponsive tier — unattributable leads.
//
// The lossy plans name mincost and quagga instead of ranging over
// AppNames(): those two react to what they receive, so the next update
// repairs a dropped one, while chord and mapreduce run a timed schedule, and
// what a fault plan may do to such a schedule needs the liveness contract of
// ROADMAP item 13 before a verdict about it means anything.
func TestLiveConformance(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, fp := range faultPlans() {
		for _, name := range []string{"mincost", "quagga"} {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", fp.name, name, seed), func(t *testing.T) {
					runLiveCase(t, fp, mustApp(t, name), seed)
				})
			}
		}
	}
	for _, name := range []string{"chord", "mapreduce"} {
		t.Run(fmt.Sprintf("none/%s/seed=1", name), func(t *testing.T) {
			runLiveCase(t, faultPlans()[0], mustApp(t, name), 1)
		})
	}
}

func runLiveCase(t *testing.T, fp faultPlan, app *workload.Workload, seed int64) {
	profile, ok := adversary.ProfileByName("tamper-log")
	if !ok {
		t.Fatal("tamper-log profile missing from catalog")
	}
	victim := fp.victim(app)
	opts := Options{
		Seed:   seed,
		Fault:  transport.NewFaultPlan(seed, fp.rules(victim)...),
		OnNode: profile.On(app.Compromised).Hook(),
	}
	if fp.tcfg != nil {
		opts.Transport = fp.tcfg()
	}
	h, err := New(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Convergence is best-effort under faults: a plan may legitimately
	// keep updates from some node, but must never corrupt the verdict.
	start := time.Now()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Logf("note: %v (acceptable under plan %s)", err, fp.name)
	}
	converge := time.Since(start)
	h.Settle()

	q := querierWithin(h, time.Second)
	auditStart := time.Now()
	v := adversary.Sweep(q, h.Maint, nil, time.Now().Add(2*time.Second), 300*time.Millisecond)
	audit := time.Since(auditStart)
	t.Logf("verdict: %v; unreachable: %v", v, q.Unreachable())
	for _, breach := range v.CheckGuarantee(profile.Class, app.Compromised, victim, false) {
		t.Errorf("§4.2 violated: %s\nfailures: %v\nred: %v", breach, v.Failures, v.RedHosts)
	}
	stats := h.Cluster.Stats()
	t.Logf("converge=%v audit=%v frames=%d drops=%d reconnects=%d",
		converge.Round(time.Millisecond), audit.Round(time.Millisecond),
		stats.FramesSent, stats.Dropped(), stats.Reconnects)
	if stats.FramesSent == 0 {
		t.Error("no frames crossed the wire — the run did not exercise TCP")
	}
}

// TestLiveHonestBaseline runs the drop+delay plan with no adversary at
// all: lossy networking alone must never produce provable evidence
// against anyone (the no-false-alarm half of accuracy). Missing-ack
// notes and yellow vertices are expected — that is what graceful
// degradation looks like.
func TestLiveHonestBaseline(t *testing.T) {
	app := mustApp(t, "mincost")
	h, err := New(app, Options{
		Seed: 7,
		Fault: transport.NewFaultPlan(7, transport.FaultRule{
			From: "*", To: "*",
			Drop:     0.05,
			DelayMin: time.Millisecond, DelayMax: 8 * time.Millisecond,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Logf("note: %v", err)
	}
	h.Settle()
	q := querierWithin(h, time.Second)
	v := adversary.Sweep(q, h.Maint, nil, time.Now().Add(2*time.Second), 300*time.Millisecond)
	for _, breach := range v.CheckGuarantee(adversary.Benign, nil, "", true) {
		t.Errorf("honest lossy run: %s: %v\nfailures: %v", breach, v, v.Failures)
	}
	if len(v.Unresponsive) != 0 {
		t.Errorf("every node serves audits, none should be unresponsive: %v", v.Unresponsive)
	}
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
