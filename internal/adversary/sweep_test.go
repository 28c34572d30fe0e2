package adversary_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/eval"
	"repro/internal/simnet"
)

// sweepDigest runs one cold AuditAll at the given Parallelism and renders
// every deterministic observable of it: the verdict's tiers, the bytes and
// microqueries the querier accounted, the auditor's logical verifications
// and verify-cache hits (equal counts are the proof that the pipelined sweep
// dropped no check), and the digest of the graph it built.
func sweepDigest(q *core.Querier, maint *core.Maintainer, parallelism int) string {
	q.Parallelism = parallelism
	cryptoutil.DefaultVerifyCache.Reset()
	v := adversary.AuditAll(q, maint)
	m, st := q.Metrics, q.Auditor.Stats.Snapshot()
	return fmt.Sprintf("failures=%v\nred=%v\nunresponsive=%v\nnotes=%v\n"+
		"log=%d auth=%d ckpt=%d contacted=%d microqueries=%d\nverifies=%d verify-cache-hits=%d\ngraph=%s",
		v.Failures, v.RedHosts, v.Unresponsive, v.Notes,
		m.LogBytes, m.AuthBytes, m.CkptBytes, m.NodesContacted, m.Microqueries,
		st.Verifies, st.VerifyCacheHits, q.Auditor.Graph().Digest())
}

// TestSweepParallelMatchesSerial pins "parallel = serial" for the one audit
// sweep: a strictly lazy AuditAll (Parallelism 1) and a pipelined one
// (Parallelism 4) of the same deployment agree on every deterministic
// observable — for each behaviour of the catalog on MinCost, and for the
// evidence workload's three behaviours on an evaluation-scale Quagga run.
func TestSweepParallelMatchesSerial(t *testing.T) {
	compare := func(t *testing.T, newQuerier func() *core.Querier, maint *core.Maintainer) {
		t.Helper()
		serial := sweepDigest(newQuerier(), maint, 1)
		parallel := sweepDigest(newQuerier(), maint, 4)
		if serial != parallel {
			t.Errorf("pipelined sweep diverged:\nserial:\n%s\nparallel:\n%s", serial, parallel)
		}
	}
	for _, p := range adversary.Catalog() {
		t.Run("mincost/"+p.Name, func(t *testing.T) {
			app := adversary.Apps()[0](1)
			cfg := simnet.DefaultConfig()
			cfg.Seed = 1
			cfg.OnNode = p.On(app.Compromised).Hook()
			net := simnet.New(cfg)
			if err := net.Deploy(app); err != nil {
				t.Fatal(err)
			}
			net.Run(app.Horizon)
			compare(t, func() *core.Querier { return net.QuerierFor(app) }, net.Maintainer)
		})
	}
	if testing.Short() {
		return // the Quagga runs take a few seconds each
	}
	for _, behaviour := range []string{"tamper-log", "equivocate", "suppress"} {
		t.Run("quagga/"+behaviour, func(t *testing.T) {
			bad, err := eval.CompromisedFor(eval.Quagga, behaviour, 1)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := adversary.ProfileByName(behaviour)
			res, err := eval.Run(eval.Quagga, eval.Options{Scale: 0.02, Seed: 1, OnNode: p.On(bad[:1]).Hook()})
			if err != nil {
				t.Fatal(err)
			}
			compare(t, res.NewQuerier, res.Net.Maintainer)
		})
	}
}
