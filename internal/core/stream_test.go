package core_test

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// auditState renders what a querier's audits leave that must not depend on
// whether they streamed: the graph's digest, the failures in order, every
// node's audited span, the unreachable nodes, the query metrics' counts and
// bytes, and the auditor's logical verification and hash counts.
func auditState(q *core.Querier, nodes []types.NodeID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s\n", q.Auditor.Graph().Digest())
	for _, f := range q.Auditor.Failures() {
		fmt.Fprintf(&b, "failure %v\n", f)
	}
	for _, id := range nodes {
		if from, to, through, ok := q.Auditor.AuditedSpan(id); ok {
			fmt.Fprintf(&b, "span %s %d..%d through %d\n", id, from, to, through)
		}
	}
	for _, id := range slices.Sorted(maps.Keys(q.Unreachable())) {
		fmt.Fprintf(&b, "unreachable %s\n", id)
	}
	m := q.Metrics
	fmt.Fprintf(&b, "log=%d auth=%d ckpt=%d microqueries=%d contacted=%d\n",
		m.LogBytes, m.AuthBytes, m.CkptBytes, m.Microqueries, m.NodesContacted)
	s := q.Auditor.Stats
	fmt.Fprintf(&b, "verifies=%d hashes=%d hashed=%d\n", s.Verifies.Load(), s.Hashes.Load(), s.HashedBytes.Load())
	return b.String()
}

// deployArmed runs app at seed 1 in memory, with behaviour armed on its
// compromised nodes unless behaviour is empty.
func deployArmed(t *testing.T, app func(int64) *workload.Workload, behaviour string) (*workload.Workload, *simnet.Net) {
	t.Helper()
	w := app(1)
	cfg := simnet.DefaultConfig()
	cfg.Seed = 1
	if behaviour != "" {
		p, ok := adversary.ProfileByName(behaviour)
		if !ok {
			t.Fatalf("no behaviour %q", behaviour)
		}
		cfg.OnNode = p.On(w.Compromised).Hook()
	}
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(w.Horizon)
	return w, net
}

// TestStreamedAuditMatchesInline: an audit that streams its replay into its
// commit (Parallelism 2, no audit cache, a task private to the call) leaves
// the graph, failures, audited spans, metrics and verification counts the
// inline one (Parallelism 1) leaves — for a single node's EnsureAudited and
// for an Explain bounded the way the frontend bounds it, on every
// conformance app, honest and with tamper-log (whose segment fails
// verification and commits without a stream), equivocate and suppress armed.
// A sweep's audits, claimed from its scope, never stream.
func TestStreamedAuditMatchesInline(t *testing.T) {
	for _, app := range adversary.Apps() {
		for _, behaviour := range []string{"", "tamper-log", "equivocate", "suppress"} {
			w, net := deployArmed(t, app, behaviour)
			fresh := func(parallelism int) *core.Querier {
				q := net.QuerierFor(w)
				q.Parallelism = parallelism
				return q
			}
			nodes := net.Nodes()
			t.Run(w.Name+"/"+cmp.Or(behaviour, "honest"), func(t *testing.T) {
				unverified, failing := 0, 0
				for _, id := range nodes {
					inline, streamed := fresh(1), fresh(2)
					for _, q := range []*core.Querier{inline, streamed} {
						_ = q.EnsureAudited(id, 0)
						q.Auditor.Finalize()
					}
					if got, want := auditState(streamed, nodes), auditState(inline, nodes); got != want {
						t.Errorf("audit of %s: streamed\n%sinline\n%s", id, got, want)
					}
					want := 0
					if streamed.Auditor.Audited(id) {
						want = 1
					} else {
						unverified++
					}
					if got := core.StreamedAudits(streamed.Auditor); got != want {
						t.Errorf("audit of %s: %d streamed commits, want %d", id, got, want)
					}
					if want == 1 && len(streamed.Auditor.Failures()) != 0 {
						failing++
					}
				}
				if behaviour == "tamper-log" && unverified == 0 {
					t.Error("no segment failed verification: the unstreamed commit went untested")
				}

				swept := map[int]string{}
				var pick *core.Querier
				for _, parallelism := range []int{1, 2} {
					pick = fresh(parallelism)
					adversary.AuditAll(pick, net.Maintainer)
					swept[parallelism] = auditState(pick, nodes)
					if n := core.StreamedAudits(pick.Auditor); n != 0 {
						t.Errorf("a sweep at parallelism %d streamed %d audits claimed from its scope", parallelism, n)
					}
				}
				if swept[1] != swept[2] {
					t.Errorf("sweeps differ: parallelism 2\n%sparallelism 1\n%s", swept[2], swept[1])
				}

				queries := adversary.ExplainQueries(pick, adversary.HonestNodes(nodes, w.Compromised))
				for _, qu := range queries[:min(len(queries), 4)] {
					inline, streamed := fresh(1), fresh(2)
					ie, ierr := adversary.ExplainBounded(inline, qu)
					se, serr := adversary.ExplainBounded(streamed, qu)
					if fmt.Sprint(ierr) != fmt.Sprint(serr) {
						t.Fatalf("%v: streamed error %v, inline error %v", qu, serr, ierr)
					}
					if ierr == nil && ie.Format() != se.Format() {
						t.Errorf("%v: streamed\n%sinline\n%s", qu, se.Format(), ie.Format())
					}
					if got, want := auditState(streamed, nodes), auditState(inline, nodes); got != want {
						t.Errorf("%v: streamed\n%sinline\n%s", qu, got, want)
					}
					audited := 0
					for _, id := range nodes {
						if streamed.Auditor.Audited(id) {
							audited++
						}
					}
					if got := core.StreamedAudits(streamed.Auditor); got != audited || core.StreamedAudits(inline.Auditor) != 0 {
						t.Errorf("%v: %d streamed commits of %d audited logs, %d inline", qu, got, audited, core.StreamedAudits(inline.Auditor))
					}
					if audited != 0 && len(streamed.Auditor.Failures()) != 0 {
						failing++
					}
				}
				if behaviour == "equivocate" && failing == 0 {
					t.Error("no streamed audit found a failure: failures arriving mid-stream went untested")
				}
			})
			_ = net.CloseLogs()
		}
	}
}
