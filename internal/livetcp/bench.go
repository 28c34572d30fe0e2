package livetcp

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/live"
	"repro/internal/transport"
	"repro/internal/types"
)

// BenchRow is one live-TCP detection run: an app under one fault plan with
// tamper-log armed on its compromised node, audited over the wire.
type BenchRow struct {
	App       string
	Plan      string
	Converged bool
	// ConvergeTime is how long the workload took to reach its fixpoint
	// probe (capped at the bench timeout when the plan prevents it).
	ConvergeTime time.Duration
	// DetectLatency is the wall time of the audit phase: from the first
	// retrieve call until the verdict carries provable evidence against
	// the armed node — the metric a paper-style "time to detection over a
	// real network" table reports.
	DetectLatency time.Duration
	// Violations are the run's breaches of the §4.2 guarantee
	// (adversary.Verdict.CheckGuarantee); a conforming run has none.
	Violations   []string
	Unresponsive int
	Stats        transport.Stats
}

// String renders the row as one table line.
func (r BenchRow) String() string {
	conv := "converged"
	if !r.Converged {
		conv = "partial"
	}
	return fmt.Sprintf("%-8s %-18s %-9s converge=%-8s detect=%-8s violations=%d unresponsive=%d frames=%d drops=%d reconnects=%d",
		r.App, r.Plan, conv,
		r.ConvergeTime.Round(time.Millisecond),
		r.DetectLatency.Round(time.Millisecond),
		len(r.Violations), r.Unresponsive,
		r.Stats.FramesSent, r.Stats.Dropped(), r.Stats.Reconnects)
}

// benchPlan is one fault plan of the live matrix, shared by Bench and the
// conformance suite. cutsVictim marks the plan that cuts the app's Victim
// off (rules receives it); the guarantee demands such a node surface as an
// unattributable lead, never as provable evidence.
type benchPlan struct {
	name       string
	cutsVictim bool
	rules      func(victim types.NodeID) []transport.FaultRule
	tcfg       func() *transport.Config
}

// victim returns the node the plan cuts off in app ("" when none).
func (bp benchPlan) victim(app live.App) types.NodeID {
	if bp.cutsVictim {
		return app.Victim
	}
	return ""
}

func benchPlans() []benchPlan {
	return []benchPlan{
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

// Bench runs the live-TCP detection scenario: tamper-log armed on each
// app's compromised node, across the fault-plan matrix, reporting
// convergence time and detection latency per run. It is the wall-clock
// companion to the simulator's adversary scenarios — same invariant
// (detected, zero false accusations), measured over loopback TCP.
func Bench(seed int64) ([]BenchRow, error) {
	profile, ok := adversary.ProfileByName("tamper-log")
	if !ok {
		return nil, fmt.Errorf("livetcp: tamper-log profile missing from catalog")
	}
	var rows []BenchRow
	for _, bp := range benchPlans() {
		for _, name := range live.AppNames() {
			app, err := live.AppByName(name)
			if err != nil {
				return nil, err
			}
			row, err := benchOne(app, bp, profile, seed)
			if err != nil {
				return nil, fmt.Errorf("livetcp: %s under %s: %w", name, bp.name, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func benchOne(app live.App, bp benchPlan, profile adversary.Profile, seed int64) (BenchRow, error) {
	opts := Options{
		Seed:               seed,
		Fault:              transport.NewFaultPlan(seed, bp.rules(bp.victim(app))...),
		OnNode:             profile.On(app.Compromised).Hook(),
		AuditRetryDeadline: time.Second,
	}
	if bp.tcfg != nil {
		opts.Transport = bp.tcfg()
	}
	h, err := New(app, opts)
	if err != nil {
		return BenchRow{}, err
	}
	defer h.Close()

	row := BenchRow{App: app.Name, Plan: bp.name}
	start := time.Now()
	err = h.RunUntil(h.Converged, 8*time.Second)
	row.ConvergeTime = time.Since(start)
	row.Converged = err == nil
	h.Settle()

	q := h.NewQuerier()
	auditStart := time.Now()
	v := adversary.Sweep(q, h.Maint, nil, time.Now().Add(2*time.Second), 300*time.Millisecond)
	row.DetectLatency = time.Since(auditStart)
	row.Violations = v.CheckGuarantee(profile.Class, app.Compromised, bp.victim(app), false)
	row.Unresponsive = len(v.Unresponsive)
	row.Stats = h.Cluster.Stats()
	return row, nil
}
