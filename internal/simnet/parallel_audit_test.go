package simnet_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/apps/bgp"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
)

// auditDigest captures every deterministic observable of auditing all nodes
// of one run: the exact failure sequence, the full vertex set with colors,
// the edge count, and the query metrics.
type auditDigest struct {
	failures string
	vertices string
	edges    int
	metrics  string
}

// digestAudit audits every node of the network, either strictly serially or
// through the parallel prepare/commit pipeline, and digests the outcome.
func digestAudit(t *testing.T, net *simnet.Net, parallel bool) auditDigest {
	t.Helper()
	q := net.NewQuerier(mincost.Factory())
	nodes := net.Nodes()
	if parallel {
		q.Parallelism = 4
		q.BeginAuditScope(nodes, 0)
		defer q.CloseScope()
	}
	for _, n := range nodes {
		_ = q.EnsureAudited(n, 0) // fetch errors surface as yellow nodes
	}
	q.Auditor.Finalize()
	var d auditDigest
	var fails strings.Builder
	for _, f := range q.Auditor.Failures() {
		fails.WriteString(f.String())
		fails.WriteByte('\n')
	}
	d.failures = fails.String()
	var verts strings.Builder
	for _, v := range q.Auditor.Graph().Vertices() {
		verts.WriteString(v.ID())
		verts.WriteByte('=')
		verts.WriteString(v.Color.String())
		verts.WriteByte('\n')
	}
	d.vertices = verts.String()
	d.edges = q.Auditor.Graph().EdgeCount()
	d.metrics = fmt.Sprintf("log=%d auth=%d ckpt=%d contacted=%d micro=%d",
		q.Metrics.LogBytes, q.Metrics.AuthBytes, q.Metrics.CkptBytes,
		q.Metrics.NodesContacted, q.Metrics.Microqueries)
	return d
}

// TestParallelAuditMatchesSerial pins the parallel audit pipeline's
// determinism contract: preparing audits on a worker pool and committing
// them in demand order must produce byte-identical failures, vertices,
// colors, edges, and metrics to a fully sequential audit — on a clean run
// and under each class of injected fault.
func TestParallelAuditMatchesSerial(t *testing.T) {
	// Behaviors carry per-run state, so each run builds its own plan.
	scenarios := []struct {
		name string
		on   func() adversary.Behavior
	}{
		{"clean", nil},
		{"suppression", func() adversary.Behavior { return suppressCostToC(nil) }},
		{"fabrication", forgeCheapRoute},
		{"refusal", adversary.RefuseAudits},
	}
	run := func(t *testing.T, on func() adversary.Behavior) *simnet.Net {
		if on == nil {
			return runMinCost(t, nil)
		}
		return runMinCost(t, adversary.Plan{"b": {on()}})
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			serial := digestAudit(t, run(t, sc.on), false)
			parallel := digestAudit(t, run(t, sc.on), true)
			if serial.failures != parallel.failures {
				t.Errorf("failure sequences differ:\nserial:\n%s\nparallel:\n%s",
					serial.failures, parallel.failures)
			}
			if serial.vertices != parallel.vertices {
				t.Errorf("vertex sets differ:\nserial:\n%s\nparallel:\n%s",
					serial.vertices, parallel.vertices)
			}
			if serial.edges != parallel.edges {
				t.Errorf("edge counts differ: serial=%d parallel=%d", serial.edges, parallel.edges)
			}
			if serial.metrics != parallel.metrics {
				t.Errorf("metrics differ:\nserial:   %s\nparallel: %s", serial.metrics, parallel.metrics)
			}
			// The fault scenarios must actually produce the signal they
			// inject, or the comparison proves nothing.
			switch sc.name {
			case "suppression", "fabrication":
				if !strings.Contains(parallel.vertices, "=red") {
					t.Error("expected red vertices in faulty scenario")
				}
			case "refusal":
				if !strings.Contains(parallel.vertices, "=yellow") {
					t.Error("expected yellow vertices when a node refuses audits")
				}
			}
		})
	}
}

// TestParallelAuditRevisit checks that committing an already-audited node a
// second time (e.g. a scope node also reached by traversal) is a no-op under
// the pipeline, as it is serially.
func TestParallelAuditRevisit(t *testing.T) {
	net := runMinCost(t, nil)
	q := net.NewQuerier(mincost.Factory())
	q.BeginAuditScope(net.Nodes(), 0)
	defer q.CloseScope()
	for i := 0; i < 2; i++ {
		for _, n := range net.Nodes() {
			if err := q.EnsureAudited(n, 0); err != nil {
				t.Fatalf("EnsureAudited(%s): %v", n, err)
			}
		}
	}
	if got, want := q.Metrics.NodesContacted, len(net.Nodes()); got != want {
		t.Errorf("NodesContacted = %d, want %d (revisits must not refetch)", got, want)
	}
	if err := q.Auditor.Graph().Validate(); err != nil {
		t.Error(err)
	}
}

// BenchmarkProvgraphRebuild times the serial commit half in isolation, the
// floor on audit latency that parallel preparation cannot remove: the
// prepared op streams of a small trace-driven BGP deployment (verified and
// replayed once, outside the timer) are committed into a fresh graph per
// iteration. ns/vertex and B/vertex name what one vertex of the rebuilt
// graph costs in time and in allocation.
func BenchmarkProvgraphRebuild(b *testing.B) {
	const horizon = 20 * types.Second
	net := simnet.New(simnet.DefaultConfig())
	w, _ := bgp.New(bgp.DefaultTopology(), types.Second, horizon, &bgp.Trace{
		Seed: 1, Updates: 40, PrefixPool: 50, Start: types.Second, Span: horizon - 6*types.Second})
	if err := net.Deploy(w); err != nil {
		b.Fatal(err)
	}
	net.Run(horizon)
	newAuditor := func() *core.Auditor {
		return core.NewAuditor(net.Cfg.Core, net.Dir, bgp.Factory(), net.Maintainer)
	}
	var prepared []*core.PreparedAudit
	preparer := newAuditor()
	for _, id := range net.Nodes() {
		auth, err := net.LatestAuth(id)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := net.Retrieve(id, core.RetrieveRequest{Auth: auth})
		if err != nil {
			b.Fatal(err)
		}
		p := preparer.Prepare(id, resp, auth)
		if p.Err() != nil {
			b.Fatal(p.Err())
		}
		prepared = append(prepared, p)
	}
	var before, after runtime.MemStats
	vertices := 0
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := newAuditor()
		for _, p := range prepared {
			if err := a.Commit(p); err != nil {
				b.Fatal(err)
			}
		}
		a.Finalize()
		vertices += a.Graph().Len()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(vertices), "ns/vertex")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(vertices), "B/vertex")
}
