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

// crashCase is one app's seeded crash plan, killing distinct honest nodes:
// one clean SIGKILL mid-run on the first, one SIGKILL in the middle of a
// split segment write on the last (a genuinely torn tail for recovery to
// truncate), and, on an app with an honest node to spare, one SIGKILL on the
// compactor goroutine mid-fold (replacement table durable, the tables it
// replaced not yet deleted; recovery must walk through the replacement and
// remove the replaced tables).
type crashCase struct {
	app     *workload.Workload
	rules   []supervisor.CrashRule
	kill    types.NodeID // the ModeKill target
	torn    types.NodeID // the ModeTorn target
	compact types.NodeID // the ModeCompact target (empty: none in this case)
}

// crashCaseFor derives the case from the registry entry alone. The kill and
// torn triggers sit well below the converged heads of the registry's
// workloads, so they fire mid-exchange even when the other crash disrupts
// the workload. The compact rule needs a couple of appends past its trigger
// to seal the tables its fold dies in, so its trigger sits lowest. mincost
// deploys only three processes (b compromised), so only quagga has an
// honest node free for it.
func crashCaseFor(t *testing.T, name string) crashCase {
	t.Helper()
	app, err := live.AppByName(name)
	if err != nil {
		t.Fatal(err)
	}
	honest := adversary.HonestNodes(app.Nodes, app.Compromised)
	if len(honest) < 2 {
		t.Fatalf("%s: no crash plan (needs two honest nodes)", name)
	}
	cc := crashCase{app: app, kill: honest[0], torn: honest[len(honest)-1]}
	cc.rules = []supervisor.CrashRule{
		{Node: cc.kill, Mode: supervisor.ModeKill, AtAppend: 3, Jitter: 1},
		{Node: cc.torn, Mode: supervisor.ModeTorn, AtAppend: 3, Jitter: 1},
	}
	if len(honest) > 2 {
		cc.compact = honest[1]
		cc.rules = append(cc.rules, supervisor.CrashRule{Node: cc.compact, Mode: supervisor.ModeCompact, AtAppend: 2, Jitter: 1})
	}
	return cc
}

// TestCrashConformance re-proves the §4.2 detection guarantee when the
// failure unit is an OS process: tamper-log armed on each app's compromised
// node, a seeded crash plan SIGKILLing two honest nodes (one mid-append,
// leaving a torn tail), supervised recovery bringing them back, and a full
// over-the-wire audit afterwards. The invariant, process-crash form:
//
//   - provable evidence still never names an honest node — crashing is not
//     tampering, and recovery must not make it look like tampering;
//   - the tamperer is still provably exposed;
//   - recovered nodes' chains still pass through their last pre-crash
//     synced state, and healed nodes are not stuck in the lead tiers.
//
// The apps are named, not ranged over live.AppNames(): a restarted node
// resumes only the periodic part of its timeline, which is all mincost and
// quagga need, while a crash row for a timed workload (chord, mapreduce)
// needs the liveness contract of ROADMAP item 13 to say what a node that was
// down when its inputs were due owes afterwards.
func TestCrashConformance(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, name := range []string{"mincost", "quagga"} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				runCrashCase(t, crashCaseFor(t, name), seed)
			})
		}
	}
}

// TestSupervisedConformance is the crash-free row for the registry's timed
// workloads: chord and mapreduce as supervised daemons, tamper-log armed on
// the compromised node, audited over the wire and held to the same check.
func TestSupervisedConformance(t *testing.T) {
	for _, name := range []string{"chord", "mapreduce"} {
		t.Run(name+"/seed=1", func(t *testing.T) {
			app, err := live.AppByName(name)
			if err != nil {
				t.Fatal(err)
			}
			runCrashCase(t, crashCase{app: app}, 1)
		})
	}
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

// runCrashCase runs one supervised deployment under cc's crash plan — none,
// when cc has no rules — and audits it.
func runCrashCase(t *testing.T, cc crashCase, seed int64) {
	app := cc.app
	behaviors := make(map[types.NodeID][]string)
	for _, id := range app.Compromised {
		behaviors[id] = []string{"tamper-log"}
	}
	opts := supervisor.Options{
		Seed:        seed,
		Dir:         workDir(t),
		App:         app.Name,
		Behaviors:   behaviors,
		TickMs:      5,
		SyncEvery:   5,
		BackoffBase: 20 * time.Millisecond,
	}
	if len(cc.rules) > 0 {
		opts.Crash = &supervisor.CrashPlan{Seed: seed, Rules: cc.rules}
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
		if len(pre) != len(cc.rules) {
			t.Fatalf("crash plan hit %d nodes, want %d: %v", len(pre), len(cc.rules), pre)
		}
	}
	if err := h.WaitHealthy(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Logf("time-to-heal=%v (launch to every node healthy again)", time.Since(start).Round(time.Millisecond))
	// Convergence is best-effort with a tamperer in the mix; it must never
	// corrupt the verdict below.
	if err := h.WaitConverged(30 * time.Second); err != nil {
		t.Logf("note: %v (acceptable with tamper-log armed)", err)
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
		switch id {
		case cc.torn:
			if hr.TornBytes == 0 {
				t.Errorf("%s died mid-flush but recovery truncated no torn tail", id)
			}
		case cc.kill:
			if hr.TornBytes != 0 {
				t.Errorf("%s died record-aligned but recovery saw %d torn bytes", id, hr.TornBytes)
			}
		case cc.compact:
			// The compact rule only ever dies inside the MidCompact hook, so
			// reaching here means the process was killed with a durable
			// replacement table next to the tables it replaced; VerifyRecovered
			// above already proved the fold never moved the synced head
			// off-chain. The tail was fully synced when the fold started, so
			// recovery must not have needed to truncate anything.
			if hr.TornBytes != 0 {
				t.Errorf("%s died mid-compaction but recovery saw %d torn bytes", id, hr.TornBytes)
			}
		}
	}

	// Audit the whole deployment over the wire, with every daemon's
	// missing-ack reports merged in first.
	if err := h.SyncNotes(); err != nil {
		t.Logf("note: %v", err)
	}
	q := h.NewQuerier()
	v := adversary.Sweep(q, h.Deployment().Maint, nil, time.Now().Add(30*time.Second), 500*time.Millisecond)
	t.Logf("verdict: %v; unreachable: %v", v, q.Unreachable())

	// The §4.2 guarantee, process-crash form: provable evidence only ever
	// names the compromised set — crashing is not tampering — and crashes
	// elsewhere in the deployment do not mask the (Provable) tamperer.
	for _, breach := range v.CheckGuarantee(adversary.Provable, app.Compromised, "", false) {
		t.Errorf("§4.2 violated: %s\nfailures: %v\nred: %v", breach, v.Failures, v.RedHosts)
	}
	// Healed crash victims answer audits again: they are neither provable
	// evidence (checked above) nor stuck unresponsive leads.
	for id := range pre {
		if why, lead := v.Unresponsive[id]; lead {
			t.Errorf("recovered node %s still unresponsive after heal: %v", id, why)
		}
	}
	if failed := h.Failed(); len(failed) != 0 {
		t.Errorf("supervisor gave up on nodes: %v", failed)
	}
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
