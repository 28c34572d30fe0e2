package supervisor_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/live"
	"repro/internal/supervisor"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// supervisedColumn is the supervised daemons' column of the conformance
// table (adversary.Column): the catalog on apps, fault-free, and extra.
func supervisedColumn(apps []string, extra []adversary.Row) adversary.Column[*testing.T] {
	return adversary.Column[*testing.T]{Apps: apps, Extra: extra, Short: testing.Short(),
		App:   func(name string, _ int64) *workload.Workload { w, _ := live.AppByName(name); return w },
		Path:  func(r adversary.Row) string { return fmt.Sprintf("%s/seed=%d/%s", r.App, r.Seed, r.Behavior) },
		Drive: driveSupervised}
}

// TestSupervisedConformance runs every catalog behaviour on each registry
// app as supervised daemons, one OS process per node, audited over the wire
// from the parent: each verdict must have the simulator's outcome for the
// row.
func TestSupervisedConformance(t *testing.T) { supervisedColumn(live.AppNames(), nil).Run(t) }

// TestCrashConformance is the supervised column's crash-plan rows, where the
// failure unit is an OS process: tamper-log on mincost and quagga at seeds 1
// and 2, with a seeded crash plan SIGKILLing honest nodes (one mid-append,
// leaving a torn tail) and supervised recovery bringing them back. Crashing
// is not tampering, and recovery must not make it look like tampering: the
// outcome stays the simulator's. Recovered chains must still pass through
// their last pre-crash synced state, and healed nodes must answer audits
// again. -short runs the supervised column's one row in
// TestSupervisedConformance instead.
//
// The apps are named, not ranged over live.AppNames(): a restarted node
// resumes only the periodic part of its timeline, which is all mincost and
// quagga need, while a crash row for a timed workload (chord, mapreduce)
// needs the liveness contract of ROADMAP item 13 to say what a node that was
// down when its inputs were due owes afterwards.
func TestCrashConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("the supervised column runs one row under -short")
	}
	var rows []adversary.Row
	for _, app := range []string{"mincost", "quagga"} {
		for _, seed := range []int64{1, 2} {
			rows = append(rows, adversary.Row{App: app, Behavior: "tamper-log", Seed: seed, Modifier: "crash"})
		}
	}
	supervisedColumn(nil, rows).Run(t)
}

// crashPlan is an app's seeded crash plan, killing distinct honest nodes:
// one clean SIGKILL mid-run on the first, one SIGKILL in the middle of a
// split segment write on the last (a genuinely torn tail for recovery to
// truncate), and, on an app with an honest node to spare, one SIGKILL on the
// compactor goroutine mid-fold (replacement table durable, the tables it
// replaced not yet deleted; recovery must walk through the replacement and
// remove the replaced tables). The kill and torn triggers sit well below the
// converged heads of the registry's workloads, so they fire mid-exchange
// even when the other crash disrupts the workload. The compact rule needs a
// couple of appends past its trigger to seal the tables its fold dies in, so
// its trigger sits lowest. mincost deploys only three processes (b
// compromised), so only quagga has an honest node free for it.
type crashPlan struct {
	rules               []supervisor.CrashRule
	kill, torn, compact types.NodeID // compact: "" when the app has none
}

func crashPlanFor(t *testing.T, app *workload.Workload) crashPlan {
	honest := adversary.HonestNodes(app.Nodes, app.Compromised)
	if len(honest) < 2 {
		t.Fatalf("%s: no crash plan (needs two honest nodes)", app.Name)
	}
	cp := crashPlan{kill: honest[0], torn: honest[len(honest)-1]}
	cp.rules = []supervisor.CrashRule{
		{Node: cp.kill, Mode: supervisor.ModeKill, AtAppend: 3, Jitter: 1},
		{Node: cp.torn, Mode: supervisor.ModeTorn, AtAppend: 3, Jitter: 1},
	}
	if len(honest) > 2 {
		cp.compact = honest[1]
		cp.rules = append(cp.rules, supervisor.CrashRule{Node: cp.compact, Mode: supervisor.ModeCompact, AtAppend: 2, Jitter: 1})
	}
	return cp
}

// startSupervised launches a supervised deployment and stops it (children,
// fetchers, probe cluster) when the test ends.
func startSupervised(t *testing.T, opts supervisor.Options) *supervisor.Supervisor {
	t.Helper()
	s, err := supervisor.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Stop(5 * time.Second) })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// driveSupervised runs one row as supervised daemons — under the app's
// crash plan when the row's modifier is "crash" — and audits it over the
// wire from the parent.
func driveSupervised(t *testing.T, row adversary.Row, app *workload.Workload) *adversary.Verdict {
	behaviors := make(map[types.NodeID][]string)
	for _, id := range row.Compromised(app) {
		behaviors[id] = []string{row.Behavior}
	}
	opts := supervisor.Options{
		Seed:        row.Seed,
		Dir:         workDir(t),
		App:         app.Name,
		Behaviors:   behaviors,
		TickMs:      5,
		SyncEvery:   5,
		BackoffBase: 20 * time.Millisecond,
	}
	var cp crashPlan
	if row.Modifier == "crash" {
		cp = crashPlanFor(t, app)
		opts.Crash = &supervisor.CrashPlan{Seed: row.Seed, Rules: cp.rules}
	}
	start := time.Now()
	h := startSupervised(t, opts)

	// Every planned crash must actually fire, and the supervisor must have
	// captured each victim's last synced state before respawning it.
	var pre map[types.NodeID]supervisor.SyncedState
	if opts.Crash != nil {
		var err error
		if pre, err = h.WaitCrashed(45 * time.Second); err != nil {
			t.Fatal(err)
		}
		if len(pre) != len(cp.rules) {
			t.Fatalf("crash plan hit %d nodes, want %d: %v", len(pre), len(cp.rules), pre)
		}
	}
	if err := h.WaitHealthy(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Logf("time-to-heal=%v (launch to every node healthy again)", time.Since(start).Round(time.Millisecond))
	// Convergence is best-effort with a behaviour armed (some keep a
	// workload from converging at all); it must never corrupt the verdict.
	if err := h.WaitConverged(10 * time.Second); err != nil {
		t.Logf("note: %v", err)
	}
	h.Settle()

	// Recovery preserved every pre-crash synced state: the live chain still
	// passes through the captured (seq, hash), at or below the new head.
	for id, st := range pre {
		hr, err := h.VerifyRecovered(id, st)
		if err != nil {
			t.Errorf("recovery broke %s's chain: %v", id, err)
			continue
		}
		t.Logf("%s: restarts=%d start-to-healthy=%v torn=%dB", id, h.Restarts(id), h.StartToHealthy(id), hr.TornBytes)
		switch {
		case id == cp.torn && hr.TornBytes == 0:
			t.Errorf("%s died mid-flush but recovery truncated no torn tail", id)
		case id != cp.torn && hr.TornBytes != 0:
			// The kill rule dies record-aligned, and the compact rule only
			// inside the MidCompact hook, with the tail fully synced when
			// the fold started: neither leaves anything to truncate.
			t.Errorf("%s died record-aligned but recovery saw %d torn bytes", id, hr.TornBytes)
		}
	}

	// Audit the whole deployment over the wire, with every daemon's
	// missing-ack reports merged in first.
	if err := h.SyncNotes(); err != nil {
		t.Logf("note: %v", err)
	}
	q := h.NewQuerier()
	// Every node answered a health probe, so the deadline only bounds how
	// long a node that refuses audits is asked again.
	v := adversary.Sweep(q, h.Deployment().Maint, nil, time.Now().Add(10*time.Second), 500*time.Millisecond)
	t.Logf("supervised verdict: %v; unreachable: %v", v, q.Unreachable())
	if failed := h.Failed(); len(failed) != 0 {
		t.Errorf("supervisor gave up on nodes: %v", failed)
	}
	return v
}

// TestUnreachableHealsAcrossRestart pins the querier-side degradation story
// when a whole process dies: audits of the dead node fail and park it in
// Unreachable (a lead, not a suspect), and after supervised recovery
// ForgetUnreachable plus a retry audits it cleanly — no provable evidence
// anywhere, because nothing dishonest ever happened.
func TestUnreachableHealsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process heal test in -short mode")
	}
	h := startSupervised(t, supervisor.Options{
		Seed:      5,
		Dir:       workDir(t),
		App:       "mincost",
		TickMs:    5,
		SyncEvery: 5,
		// A slow respawn leaves a wide window where d is genuinely down.
		BackoffBase: 800 * time.Millisecond,
	})
	if err := h.WaitHealthy(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	h.Settle()

	if err := h.Kill("d"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); h.Running("d"); {
		if time.Now().After(deadline) {
			t.Fatal("d still running after Kill")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Short audit budgets make EnsureAudited fail inside that window.
	q := h.NewQuerier()
	f := q.Fetch.(*transport.RemoteFetcher)
	f.CallTimeout, f.RetryDeadline = 150*time.Millisecond, 250*time.Millisecond
	if err := q.EnsureAudited("d", 0); err == nil {
		t.Fatal("audit of a dead process succeeded")
	}
	if _, ok := q.Unreachable()["d"]; !ok {
		t.Fatalf("d missing from Unreachable: %v", q.Unreachable())
	}
	if err := q.EnsureAudited("c", 0); err != nil {
		t.Fatalf("audit of a live node failed: %v", err)
	}

	// Let the supervisor bring d back through crash recovery.
	deadline := time.Now().Add(30 * time.Second)
	for h.Restarts("d") == 0 || !h.Running("d") {
		if time.Now().After(deadline) {
			t.Fatalf("d not respawned: restarts=%d running=%v", h.Restarts("d"), h.Running("d"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := h.WaitHealthy(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Heal the querier: forget the mark, dial fresh, audit again.
	q.ForgetUnreachable("d")
	if _, ok := q.Unreachable()["d"]; ok {
		t.Fatal("ForgetUnreachable left d marked")
	}
	f2 := h.Cluster().NewFetcher("auditor2")
	f2.CallTimeout = time.Second
	f2.RetryDeadline = 5 * time.Second
	defer f2.Close()
	q.Fetch = f2
	if err := q.EnsureAudited("d", 0); err != nil {
		t.Fatalf("audit after recovery failed: %v", err)
	}

	// A full audit of the healed deployment: an honest crash plus recovery
	// must leave no provable evidence against anyone, and d must not be
	// stuck in the unresponsive tier.
	if err := h.SyncNotes(); err != nil {
		t.Logf("note: %v", err)
	}
	v := adversary.Sweep(q, h.Deployment().Maint, nil, time.Now().Add(20*time.Second), 500*time.Millisecond)
	for _, breach := range v.CheckGuarantee(adversary.Benign, nil, "", true) {
		t.Errorf("honest crash+recovery: %s: %v\nfailures: %v", breach, v, v.Failures)
	}
	if why, ok := v.Unresponsive["d"]; ok {
		t.Errorf("recovered d still unresponsive: %v", why)
	}
}
