package adversary

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/types"
)

// Verdict is everything a full audit of a deployment surfaced, separated
// into the paper's evidence tiers: provable evidence (audit failures and
// red vertices, which must only ever implicate compromised nodes) and
// unattributable leads (unresponsive nodes, missing-ack reports, yellow
// vertices on compromised nodes' exchanges).
type Verdict struct {
	// Failures are the auditor's provable findings (§5.5).
	Failures []core.Failure
	// RedHosts hosts at least one red vertex in the reconstructed graph.
	RedHosts []types.NodeID
	// Unresponsive maps nodes that failed to answer audits to the error.
	Unresponsive map[types.NodeID]error
	// Notes are the maintainer's missing-ack reports (§5.4).
	Notes []core.MissingAckNote
}

// StrongNodes returns the nodes implicated by provable evidence, sorted.
func (v *Verdict) StrongNodes() []types.NodeID {
	seen := map[types.NodeID]bool{}
	for _, f := range v.Failures {
		seen[f.Node] = true
	}
	for _, h := range v.RedHosts {
		seen[h] = true
	}
	return sortedNodeSet(seen)
}

// LeadNodes returns the nodes involved in unattributable leads, sorted: the
// unresponsive set plus both endpoints of every reported missing ack. Leads
// may legitimately involve honest nodes (a missing ack implicates an
// exchange, not an endpoint), so they are matched against the compromised
// set rather than held to the accuracy bar.
func (v *Verdict) LeadNodes() []types.NodeID {
	seen := map[types.NodeID]bool{}
	for id := range v.Unresponsive {
		seen[id] = true
	}
	for _, n := range v.Notes {
		seen[n.ID.Src] = true
		seen[n.ID.Dst] = true
	}
	return sortedNodeSet(seen)
}

// Detected reports whether any evidence — provable or lead — implicates a
// node in the compromised set.
func (v *Verdict) Detected(compromised []types.NodeID) bool {
	bad := nodeSet(compromised)
	for _, n := range v.StrongNodes() {
		if bad[n] {
			return true
		}
	}
	for _, n := range v.LeadNodes() {
		if bad[n] {
			return true
		}
	}
	return false
}

// FalselyAccused returns honest nodes implicated by *provable* evidence —
// the accuracy guarantee (Theorem 5) demands this is always empty.
func (v *Verdict) FalselyAccused(compromised []types.NodeID) []types.NodeID {
	bad := nodeSet(compromised)
	var out []types.NodeID
	for _, n := range v.StrongNodes() {
		if !bad[n] {
			out = append(out, n)
		}
	}
	return out
}

// CheckGuarantee holds the verdict to the §4.2 detection guarantee and
// returns every breach (empty for a conforming run). It is the one oracle
// every execution mode — simulator, live TCP, multi-process, the query
// frontend — is judged by:
//
//   - accuracy, always: provable evidence (failures, red vertices) never
//     implicates a node outside compromised;
//   - Provable behaviors: there is provable evidence;
//   - Traceable behaviors: some evidence (provable or lead) implicates a
//     compromised node, or every honest answer is identical to the
//     adversary-free baseline's;
//   - Benign behaviors (and adversary-free runs, with compromised empty):
//     no provable evidence, and identical honest answers;
//   - degradation: victim, an honest node the run cut off from the auditor
//     ("" when there is none), is an unresponsive lead and never appears in
//     the provable tier.
//
// identical says whether the run's honest answers matched the baseline's;
// runs that compare no answers pass false for an armed run (evidence is then
// required) and true for an adversary-free one.
func (v *Verdict) CheckGuarantee(class Class, compromised []types.NodeID, victim types.NodeID, identical bool) []string {
	var out []string
	strong := v.StrongNodes()
	if accused := v.FalselyAccused(compromised); len(accused) != 0 {
		out = append(out, fmt.Sprintf("provable evidence implicates honest nodes %v", accused))
	}
	detected := v.Detected(compromised)
	switch class {
	case Provable:
		if len(strong) == 0 {
			out = append(out, "no provable evidence for a provable behavior")
		}
	case Traceable:
		if !detected && !identical {
			out = append(out, "honest answers diverged but no evidence implicates a compromised node")
		}
	case Benign:
		if len(strong) != 0 {
			out = append(out, "benign behavior produced provable evidence")
		}
		if !identical {
			out = append(out, "benign behavior perturbed honest answers")
		}
	}
	// The invariant's either/or, independent of class expectations: evidence
	// implicating a compromised node, or bit-identical honest answers.
	if !detected && !identical {
		out = append(out, "neither evidence nor unchanged honest answers")
	}
	if victim != "" {
		if _, lead := v.Unresponsive[victim]; !lead {
			out = append(out, fmt.Sprintf("cut-off node %s missing from the unresponsive tier", victim))
		}
		if slices.Contains(strong, victim) {
			out = append(out, fmt.Sprintf("cut-off honest node %s in the provable tier", victim))
		}
	}
	return out
}

func (v *Verdict) String() string {
	return fmt.Sprintf("failures=%d redHosts=%v unresponsive=%d notes=%d",
		len(v.Failures), v.RedHosts, len(v.Unresponsive), len(v.Notes))
}

func nodeSet(ids []types.NodeID) map[types.NodeID]bool {
	m := make(map[types.NodeID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func sortedNodeSet(seen map[types.NodeID]bool) []types.NodeID {
	out := make([]types.NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sweep is the one audit sweep every execution mode runs: audit targets
// (the whole membership when empty) through q — retrieve, verify, replay —
// then finalize quiescence and run the §5.5 consistency check over the
// authenticators the reachable peers hold about each target, and assemble
// the Verdict. maint may be nil. Targets are audited in the given order
// (sorted node order for the whole membership), so verdicts are
// deterministic. The sweep runs under an audit scope over its targets: the
// per-node half of auditing (Theorem 2: each vertex has one host) is
// prepared on q's worker pool while this goroutine commits in target order,
// which changes the wall-clock time and nothing else.
//
// Targets that fail to answer are retried every retryEvery, their sticky
// yellow state cleared between attempts, until they answer or the deadline
// passes; a zero deadline means one attempt. Nodes still unresponsive then
// stay in the Verdict's Unresponsive tier — unattributable leads, exactly
// what §4.2 allows the system to say about a peer it cannot reach — and are
// not asked for authenticators either: that costs evidence, never accuracy,
// and saves a retry deadline per (peer, target) pair on a live network.
//
// A verdict with provable evidence that used an audit-cache recording is
// swept again, on q with the cache dropped (core.Querier.ForgetRecordings),
// and that verdict is returned: recordings may confirm, never accuse.
func Sweep(q *core.Querier, maint *core.Maintainer, targets []types.NodeID,
	deadline time.Time, retryEvery time.Duration) *Verdict {
	v := &Verdict{Unresponsive: make(map[types.NodeID]error)}
	all := q.Fetch.Nodes()
	if len(targets) == 0 {
		targets = all
	}
	q.BeginAuditScope(targets, 0)
	defer q.CloseScope()
	for pending := targets; ; {
		var again []types.NodeID
		for _, id := range pending {
			if err := q.EnsureAudited(id, 0); err != nil {
				v.Unresponsive[id] = err
				again = append(again, id)
			} else {
				delete(v.Unresponsive, id)
			}
		}
		if len(again) == 0 || !time.Now().Before(deadline) {
			break
		}
		if wait := min(retryEvery, time.Until(deadline)); wait > 0 {
			time.Sleep(wait)
		}
		for _, id := range again {
			q.ForgetUnreachable(id)
		}
		pending = again
	}
	q.Auditor.Finalize()
	for _, target := range targets {
		core.CheckConsistency(q.Fetch, all, v.Unresponsive, target, 0, provgraph.Forever, q.Auditor.CheckAuthenticator)
	}
	v.Refresh(q, maint)
	if (len(v.Failures) != 0 || len(v.RedHosts) != 0) && q.ForgetRecordings() {
		return Sweep(q, maint, targets, deadline, retryEvery)
	}
	return v
}

// AuditAll is one Sweep of the whole deployment, no retries.
func AuditAll(q *core.Querier, maint *core.Maintainer) *Verdict {
	return Sweep(q, maint, nil, time.Time{}, 0)
}

// Refresh re-snapshots the evidence that later queries may have extended
// (macroqueries run further consistency checks, which can append failures).
func (v *Verdict) Refresh(q *core.Querier, maint *core.Maintainer) {
	v.Failures = q.Auditor.Failures()
	v.RedHosts = q.Auditor.Graph().HostsWithColor(provgraph.Red)
	v.Notes = maint.Notes()
}
