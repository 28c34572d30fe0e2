package eval

import (
	"testing"

	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/types"
)

// BenchmarkExplainInProcess times one Explain answered the way the query
// frontend answers it, without the network: a fresh querier with Parallelism
// 2 and no audit cache, so every audit streams its replay into its commit;
// the root's log audited whole and every log the walk crosses onto bounded
// by the root's causal horizon. The questions are, in turn, each stub's first
// disappeared advRoute on Quagga at scale 0.02. Besides time and
// allocations per Explain it reports the vertices of the graph each built.
//
//	go test -run '^$' -bench ExplainInProcess -benchmem ./internal/eval
func BenchmarkExplainInProcess(b *testing.B) {
	res, err := Run(Quagga, Options{Scale: 0.02, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.QueryOpts{Mode: core.ModeDisappear, Scope: 12}
	type question struct {
		node  types.NodeID
		tuple types.Tuple
	}
	var questions []question
	for _, stub := range res.Net.Nodes() {
		if stub < "as50" {
			continue // tier-1 and regional networks
		}
		q := res.NewQuerier()
		if err := q.EnsureAudited(stub, 0); err != nil {
			b.Fatal(err)
		}
		for _, v := range q.Auditor.Graph().ByHost(stub) {
			if v.Type == provgraph.VBelieveDisappear && v.Tuple.Rel == "advRoute" {
				questions = append(questions, question{stub, v.Tuple})
				break
			}
		}
	}
	if len(questions) == 0 {
		b.Fatal("no stub has a disappeared advRoute")
	}
	vertices, i := 0, 0
	b.ReportAllocs()
	for b.Loop() {
		qu := questions[i%len(questions)]
		i++
		q := res.NewQuerier()
		q.Parallelism = 2
		if err := q.EnsureAudited(qu.node, 0); err != nil {
			b.Fatal(err)
		}
		o := opts
		o.EndHint = q.CausalHorizon(qu.node, qu.tuple, o)
		if _, err := q.Explain(qu.node, qu.tuple, o); err != nil {
			b.Fatal(err)
		}
		q.Auditor.Finalize()
		vertices += q.Auditor.Graph().Len()
	}
	b.ReportMetric(float64(vertices)/float64(b.N), "vertices/op")
}
