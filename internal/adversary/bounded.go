package adversary

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/types"
)

// ExplainQueries selects the questions the bounded-Explain suites ask of an
// audited deployment: pickQueries' (the conformance questions); for every
// honest node the first tuple it still believes on another node's word,
// whose causes are on that node; and the first tuple it saw another node
// withdraw and the last it saw one announce — of BGP routes, §7.2's
// Quagga-Disappear and BadGadget queries, asked of every node instead of one.
func ExplainQueries(q *core.Querier, honest []types.NodeID) []Query {
	out := pickQueries(q, honest)
	g := q.Auditor.Graph()
	for _, id := range honest {
		var gone, came *provgraph.Vertex
		believed := false
		for _, v := range g.ByHost(id) {
			if v.Type == provgraph.VBelieve && v.Open() && !believed {
				believed = true
				out = append(out, Query{Node: id, Tuple: v.Tuple, Opts: core.QueryOpts{Mode: core.ModeExist, Scope: 8}})
			}
			switch {
			case v.Type == provgraph.VBelieveDisappear && gone == nil:
				gone = v
			case v.Type == provgraph.VBelieveAppear:
				came = v
			}
		}
		if gone != nil {
			out = append(out, Query{Node: id, Tuple: gone.Tuple, Opts: core.QueryOpts{Mode: core.ModeDisappear, Scope: 12}})
		}
		if came != nil {
			out = append(out, Query{Node: id, Tuple: came.Tuple, Opts: core.QueryOpts{Mode: core.ModeAppear, Scope: 12}})
		}
	}
	return out
}

// ExplainBounded answers qu on q, which answers nothing else, the way the
// query frontend does: the root's log in full, every log the walk crosses
// onto through the root's causal horizon.
func ExplainBounded(q *core.Querier, qu Query) (*core.Explanation, error) {
	if err := q.EnsureAudited(qu.Node, 0); err != nil {
		return nil, err
	}
	opts := qu.Opts
	opts.EndHint = q.CausalHorizon(qu.Node, qu.Tuple, opts)
	return q.Explain(qu.Node, qu.Tuple, opts)
}

// BoundedDiffs asks every query of two queriers of its own, one bounded and
// one auditing whole logs, and describes each pair of answers that do not
// render byte-identically; on an honest deployment there must be none. short
// counts the logs the bounded queriers audited a proper prefix of: a suite
// that finds none has compared the full path with itself.
func BoundedDiffs(fresh func() *core.Querier, queries []Query) (diffs []string, short int) {
	for _, qu := range queries {
		fq, bq := fresh(), fresh()
		full, ferr := fq.Explain(qu.Node, qu.Tuple, qu.Opts)
		bounded, berr := ExplainBounded(bq, qu)
		switch {
		case ferr != nil || berr != nil:
			if fmt.Sprint(ferr) != fmt.Sprint(berr) {
				diffs = append(diffs, fmt.Sprintf("%v (%v): full: %v, bounded: %v", qu, qu.Opts.Mode, ferr, berr))
			}
		case full.Format() != bounded.Format():
			diffs = append(diffs, fmt.Sprintf("%v (%v):\nfull:\n%sbounded:\n%s", qu, qu.Opts.Mode, full.Format(), bounded.Format()))
		}
		for _, id := range fq.Fetch.Nodes() {
			_, head, _, _ := fq.Auditor.AuditedSpan(id)
			if _, to, _, ok := bq.Auditor.AuditedSpan(id); ok && to < head {
				short++
			}
		}
	}
	return diffs, short
}
