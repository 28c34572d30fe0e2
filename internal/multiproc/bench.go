package multiproc

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/live"
	"repro/internal/supervisor"
	"repro/internal/types"
)

// BenchRow is one multi-process benchmark result: an app run under a crash
// plan with tamper-log armed, measuring supervised-recovery latency and
// detection quality across OS-process crashes.
type BenchRow struct {
	App  string
	Plan string
	Seed int64

	// Converged reports whether the workload converged after the crashes.
	Converged    bool
	ConvergeTime time.Duration
	// RestartToHealthy is the worst crashed node's respawn→first-healthy-
	// probe latency; TimeToHeal spans crash-plan launch to every node
	// healthy again.
	RestartToHealthy time.Duration
	TimeToHeal       time.Duration
	// DetectLatency is the audit wall time until the verdict settled.
	DetectLatency time.Duration
	// Violations are the run's breaches of the §4.2 guarantee
	// (adversary.Verdict.CheckGuarantee); a conforming run has none.
	Violations   []string
	Unresponsive int
	Restarts     int
	TornBytes    int64
}

func (r BenchRow) String() string {
	return fmt.Sprintf("%-8s %-10s seed=%d conv=%-5v heal=%-8s restart=%-8s detect=%-8s violations=%d unresp=%d restarts=%d torn=%dB",
		r.App, r.Plan, r.Seed, r.Converged,
		r.TimeToHeal.Round(time.Millisecond), r.RestartToHealthy.Round(time.Millisecond),
		r.DetectLatency.Round(time.Millisecond),
		len(r.Violations), r.Unresponsive, r.Restarts, r.TornBytes)
}

// crashRules is the crash plan the bench and the conformance suite run
// against app: a clean SIGKILL on its first honest node and a torn-tail
// SIGKILL on its last. Both triggers sit well below the converged heads of
// the registry's workloads, so they fire mid-exchange even when the other
// crash disrupts the workload.
func crashRules(app live.App) []supervisor.CrashRule {
	honest := adversary.HonestNodes(app.Nodes, app.Compromised)
	if len(honest) < 2 {
		return nil
	}
	return []supervisor.CrashRule{
		{Node: honest[0], Mode: supervisor.ModeKill, AtAppend: 3, Jitter: 1},
		{Node: honest[len(honest)-1], Mode: supervisor.ModeTorn, AtAppend: 3, Jitter: 1},
	}
}

// Bench runs the multi-process crash benchmark: for each app, a supervised
// deployment with tamper-log on the compromised node and a kill+torn crash
// plan, measuring recovery and detection. dir roots the deployments (one
// subdirectory per app). The returned rows carry the §4.2 scorecard;
// callers decide which deviations are fatal.
func Bench(dir string, seed int64) ([]BenchRow, error) {
	var rows []BenchRow
	for _, name := range live.AppNames() {
		row, err := benchOne(fmt.Sprintf("%s/%s", dir, name), name, seed)
		if err != nil {
			return rows, fmt.Errorf("multiproc bench %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func benchOne(dir, appName string, seed int64) (BenchRow, error) {
	app, err := live.AppByName(appName)
	if err != nil {
		return BenchRow{}, err
	}
	behaviors := make(map[types.NodeID][]string)
	for _, id := range app.Compromised {
		behaviors[id] = []string{"tamper-log"}
	}
	row := BenchRow{App: appName, Plan: "kill+torn", Seed: seed}
	start := time.Now()
	h, err := New(Options{
		Seed:        seed,
		Dir:         dir,
		App:         appName,
		Behaviors:   behaviors,
		Crash:       &supervisor.CrashPlan{Seed: seed, Rules: crashRules(app)},
		TickMs:      5,
		SyncEvery:   5,
		BackoffBase: 20 * time.Millisecond,
	})
	if err != nil {
		return row, err
	}
	defer h.Close()

	pre, err := h.WaitCrashed(45 * time.Second)
	if err != nil {
		return row, err
	}
	if err := h.Sup.WaitHealthy(30 * time.Second); err != nil {
		return row, err
	}
	row.TimeToHeal = time.Since(start)
	if err := h.Sup.WaitConverged(30 * time.Second); err == nil {
		row.Converged = true
		row.ConvergeTime = time.Since(start)
	}
	h.Settle()

	for id := range pre {
		hr, err := h.VerifyRecovered(id, pre[id])
		if err != nil {
			return row, err
		}
		row.TornBytes += hr.TornBytes
		row.Restarts += h.Sup.Restarts(id)
		for _, d := range h.Sup.StartToHealthy(id) {
			if d > row.RestartToHealthy {
				row.RestartToHealthy = d
			}
		}
	}

	if err := h.SyncNotes(); err != nil {
		return row, err
	}
	q := h.NewQuerier()
	auditStart := time.Now()
	v := adversary.Sweep(q, h.Maint, nil, time.Now().Add(30*time.Second), 500*time.Millisecond)
	row.DetectLatency = time.Since(auditStart)
	row.Violations = v.CheckGuarantee(adversary.Provable, app.Compromised, "", false)
	row.Unresponsive = len(v.Unresponsive)
	return row, nil
}
