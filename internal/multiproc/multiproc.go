// Package multiproc runs SNP deployments across real OS processes — one
// snp-node daemon per node under a supervisor, each running its own node's
// timeline of the registry workload it was named — and audits them from the
// parent over the wire. It is the layer above livetcp in the realism
// ladder: same framed-TCP protocol, but the failure unit is a process
// (SIGKILL, torn log tails, supervised restart through crash recovery), and
// the conformance suite here re-proves the §4.2 detection guarantee across
// those crashes.
package multiproc

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/supervisor"
	"repro/internal/transport"
	"repro/internal/types"
)

// Options configures a multi-process deployment.
type Options struct {
	// Dir roots everything the deployment writes (required; one deployment
	// per directory).
	Seed int64
	Dir  string
	// App names the workload (live.AppByName).
	App string
	// Behaviors maps nodes to adversary profile names armed in-process.
	Behaviors map[types.NodeID][]string
	// Crash schedules seeded process deaths (nil: none).
	Crash *supervisor.CrashPlan
	// Supervisor tuning passed through (zero: supervisor defaults).
	TickMs, SyncEvery int
	BackoffBase       time.Duration
	// AuditCallTimeout / AuditRetryDeadline bound the parent's audit and
	// probe RPCs (defaults transport.AuditCallTimeout / AuditRetryDeadline).
	AuditCallTimeout   time.Duration
	AuditRetryDeadline time.Duration
}

// Harness is one running multi-process deployment, seen from the parent:
// the supervisor owning the children, and the audit-side deployment
// parameters — directory, protocol configuration, and the parent-side
// maintainer (Maint) that SyncNotes merges every child's missing-ack
// reports into before an audit.
type Harness struct {
	*live.Deployment
	Opts Options
	Sup  *supervisor.Supervisor

	fetch    *transport.RemoteFetcher
	fetchers []*transport.RemoteFetcher
}

// New launches the deployment: a supervisor with one daemon process per
// node, plus the parent-side audit state (the same derivation the children
// run, so both sides agree on the directory).
func New(opts Options) (*Harness, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("multiproc: Options.Dir is required")
	}
	if opts.AuditCallTimeout <= 0 {
		opts.AuditCallTimeout = transport.AuditCallTimeout
	}
	if opts.AuditRetryDeadline <= 0 {
		opts.AuditRetryDeadline = transport.AuditRetryDeadline
	}
	sup, err := supervisor.New(supervisor.Options{
		Dir:         opts.Dir,
		Seed:        opts.Seed,
		App:         opts.App,
		Behaviors:   opts.Behaviors,
		Crash:       opts.Crash,
		TickMs:      opts.TickMs,
		SyncEvery:   opts.SyncEvery,
		BackoffBase: opts.BackoffBase,
	})
	if err != nil {
		return nil, err
	}
	dep, err := live.NewDeployment(sup.App(), opts.Seed, 0)
	if err != nil {
		return nil, err
	}
	h := &Harness{Deployment: dep, Opts: opts, Sup: sup}
	if err := sup.Start(); err != nil {
		sup.Stop(2 * time.Second)
		return nil, err
	}
	h.fetch = h.newFetcher("harness")
	return h, nil
}

func (h *Harness) newFetcher(id types.NodeID) *transport.RemoteFetcher {
	f := h.Sup.Cluster().NewFetcher(id)
	f.CallTimeout = h.Opts.AuditCallTimeout
	f.RetryDeadline = h.Opts.AuditRetryDeadline
	h.fetchers = append(h.fetchers, f)
	return f
}

// SyncNotes pulls every child process's missing-ack reports (§5.4) into
// the parent-side maintainer; see transport.RemoteFetcher.SyncNotes.
func (h *Harness) SyncNotes() error { return h.fetch.SyncNotes(h.Maint) }

// NewQuerier builds an audit session over the wire, dialing the child
// processes like any external auditor.
func (h *Harness) NewQuerier() *core.Querier {
	return h.Deployment.NewQuerier(h.newFetcher("auditor"))
}

// WaitCrashed waits until every node the crash plan names has died and been
// respawned at least once, then returns the pre-crash synced state the
// supervisor captured for each (it reads the sidecar in the window between
// a child dying and its replacement starting, so the capture is race-free).
func (h *Harness) WaitCrashed(timeout time.Duration) (map[types.NodeID]supervisor.SyncedState, error) {
	if h.Opts.Crash == nil {
		return nil, fmt.Errorf("multiproc: no crash plan to wait for")
	}
	var targets []types.NodeID
	for _, id := range h.App.Nodes {
		if _, ok := h.Opts.Crash.RuleFor(id); ok {
			targets = append(targets, id)
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		var waiting []types.NodeID
		for _, id := range targets {
			if h.Sup.Restarts(id) == 0 {
				waiting = append(waiting, id)
			}
		}
		if len(waiting) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("multiproc: crash plan did not fire on %v within %v", waiting, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	pre := make(map[types.NodeID]supervisor.SyncedState)
	for _, id := range targets {
		states := h.Sup.PreCrashStates(id)
		if len(states) == 0 {
			return nil, fmt.Errorf("multiproc: %s crashed but left no synced sidecar to verify against", id)
		}
		pre[id] = states[len(states)-1]
	}
	return pre, nil
}

// VerifyRecovered checks that a recovered child's chain still passes
// through a captured pre-crash synced state: the health probe at that
// sequence must return the captured hash, and the live head must be at or
// past it. It returns the health report so callers can inspect TornBytes.
func (h *Harness) VerifyRecovered(id types.NodeID, st supervisor.SyncedState) (transport.Health, error) {
	hr, err := h.fetch.Health(id, st.Seq)
	if err != nil {
		return hr, fmt.Errorf("multiproc: probing recovered %s: %w", id, err)
	}
	if hr.HeadSeq < st.Seq {
		return hr, fmt.Errorf("multiproc: %s recovered to head %d, behind its synced state %d",
			id, hr.HeadSeq, st.Seq)
	}
	if !bytes.Equal(hr.ProbeHash, st.Hash) {
		return hr, fmt.Errorf("multiproc: %s chain hash at %d diverged from its pre-crash synced state",
			id, st.Seq)
	}
	return hr, nil
}

// Settle sleeps through the deployment's settling window (the daemons tick
// themselves, the parent only has to wait).
func (h *Harness) Settle() { time.Sleep(h.SettleWindow()) }

// Close tears the deployment down: the parent's fetchers, then the
// supervised children (graceful, with a kill fallback).
func (h *Harness) Close() {
	for _, f := range h.fetchers {
		f.Close()
	}
	h.Sup.Stop(5 * time.Second)
}
