package eval

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// LongRetentionReport summarizes a store-backed long-retention run (every
// node keeps its whole log, spilled to the disk-backed segment store):
// Figure 6 log-growth accounting computed over the spilled logs, how much
// history lived only on disk, and the outcome of crash-recovering one node's
// store and re-auditing it.
type LongRetentionReport struct {
	Config ConfigName
	Fig6   Fig6Row
	Fig5   Fig5Row
	// Baseline are the same series from an identically seeded in-memory
	// run; Identical reports whether every deterministic metric matched.
	BaselineFig6 Fig6Row
	BaselineFig5 Fig5Row
	Identical    bool

	// ColdEntries counts log entries resident only on disk across all
	// nodes at the end of the run (the spill the hot-tail cap forced).
	ColdEntries uint64

	// Recovered names the node whose store was reopened without a clean
	// shutdown; RecoveredEntries is its chain length after replay.
	Recovered        types.NodeID
	RecoveredEntries uint64
	// SegmentIdentical reports that the reopened store served the full
	// retained segment byte-for-byte identically to the live log.
	SegmentIdentical bool
	// AuditFailures counts provable problems found when the recovered
	// segment was verified against the live log's authenticator and
	// replayed through the graph-construction algorithm (0 = clean audit).
	AuditFailures int
}

func (r *LongRetentionReport) String() string {
	return fmt.Sprintf("%-13s cold=%d entries on disk; metrics identical=%v; recovered %s (%d entries, segment identical=%v, audit failures=%d)",
		r.Config, r.ColdEntries, r.Identical, r.Recovered, r.RecoveredEntries, r.SegmentIdentical, r.AuditFailures)
}

// DefaultHotTail is the resident-entry cap LongRetention applies when the
// caller does not choose one: small enough that paper-scale runs spill most
// of their history, large enough to keep the online path out of the store.
const DefaultHotTail = 128

// LongRetention runs one configuration with every node's log spilled to a
// segment store under dir and a bounded hot tail, then
//
//  1. recomputes the Figure 5/6 series over the spilled logs and checks
//     them against an identically seeded in-memory baseline run (every
//     deterministic metric must be bit-identical),
//  2. reopens one node's store as a restarted node would, which replays the
//     data file and re-verifies the hash chain against the persisted base
//     hash and the last synced head, and
//  3. checks the recovered log serves the retained segment byte-for-byte
//     and passes a full audit against the live node's own authenticator.
//
// At Scale 1.0 this is the paper-sized run; tests run it at the usual
// reduced scales. No log is truncated.
func LongRetention(name ConfigName, o Options, dir string) (*LongRetentionReport, error) {
	o = o.normalize()
	o.LogDir = dir
	if o.LogHotTail == 0 {
		o.LogHotTail = DefaultHotTail
	}
	res, err := Run(name, o)
	if err != nil {
		return nil, err
	}
	defer res.Net.CloseLogs()
	rep := &LongRetentionReport{Config: name, Fig6: Figure6(res), Fig5: Figure5(res)}

	// The same run without a store: every deterministic series must match.
	om := o
	om.LogDir = ""
	om.LogHotTail = 0
	mem, err := Run(name, om)
	if err != nil {
		return nil, err
	}
	rep.BaselineFig6 = Figure6(mem)
	rep.BaselineFig5 = Figure5(mem)
	rep.Identical = rep.Fig6 == rep.BaselineFig6 && rep.Fig5 == rep.BaselineFig5

	// Pick the node with the most spilled history as the recovery target.
	var target types.NodeID
	var most uint64
	for _, id := range res.Net.Nodes() {
		lg := res.Net.Node(id).Log
		cold := lg.ColdEntries()
		rep.ColdEntries += cold
		if lg.Len() > 0 && (target == "" || cold > most) {
			target, most = id, cold
		}
	}
	if target == "" {
		return nil, fmt.Errorf("eval: no node with a non-empty log in %s", name)
	}
	rep.Recovered = target

	live := res.Net.Node(target).Log
	liveSeg, err := live.Segment(live.FirstSeq(), live.Len())
	if err != nil {
		return nil, err
	}
	auth, err := live.AuthenticatorAt(live.Len())
	if err != nil {
		return nil, err
	}

	// Restart recovery: reopen the store while the live log still holds it
	// (the process never closed it; Run's end-of-run sync plays the role of
	// a deployment's periodic sync). Open replays the data file and
	// re-verifies the chain against the persisted base hash and the synced
	// head; torn-tail crash repair is covered by the seclog store tests. A
	// nil key is enough: the recovered log only serves reads.
	cfg := o.simCfg().Core
	recovered, err := seclog.Open(dir, target, cfg.Suite, nil, nil, o.LogHotTail)
	if err != nil {
		return nil, fmt.Errorf("eval: recovery of %s: %w", target, err)
	}
	defer recovered.Close()
	rep.RecoveredEntries = recovered.Len()
	if recovered.FirstSeq() != live.FirstSeq() || recovered.Len() != live.Len() ||
		!bytes.Equal(recovered.HeadHash(), live.HeadHash()) {
		return rep, fmt.Errorf("eval: recovered log of %s diverges: first=%d/%d len=%d/%d",
			target, recovered.FirstSeq(), live.FirstSeq(), recovered.Len(), live.Len())
	}
	recSeg, err := recovered.Segment(recovered.FirstSeq(), recovered.Len())
	if err != nil {
		return rep, err
	}
	rep.SegmentIdentical = bytes.Equal(wire.Encode(liveSeg), wire.Encode(recSeg))

	// Full audit of the recovered segment: verify it against the live
	// node's authenticator and replay it through the GCA (the querier's
	// wiring supplies the app-specific maybe-rule validator).
	q := res.NewQuerier()
	if err := q.Auditor.Commit(q.Auditor.Prepare(target, &core.RetrieveResponse{Segment: recSeg}, auth)); err != nil {
		rep.AuditFailures = len(q.Auditor.Failures())
		return rep, fmt.Errorf("eval: audit of recovered %s: %w", target, err)
	}
	rep.AuditFailures = len(q.Auditor.Failures())
	return rep, nil
}
