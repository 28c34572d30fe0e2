package adversary

import (
	"fmt"

	"repro/internal/apps/bgp"
	"repro/internal/apps/chord"
	"repro/internal/apps/mapreduce"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// StoreBacking selects on-disk backing for conformance runs: store-backed
// logs and (optionally) a persistent audit cache shared across runs. Sharing
// one LogDir and Cache across a baseline and its adversarial re-runs is
// deliberate: successive runs re-deploy the same node names, so the cache
// accumulates entries for chains that no longer exist — exactly the stale
// state that must never help an adversary look honest or frame an honest
// node (cache keys pin the head chain hash, so a diverged chain can only
// miss).
type StoreBacking struct {
	LogDir string
	Cache  *core.AuditCache
}

// Apps returns the conformance application set in a fixed order. Each entry
// builds one application for a seed: a sizing of its package's one workload
// with the nodes behaviors are armed on named. seed draws the generated
// inputs (the BGP trace, the corpus), so the adversary-free run of (app,
// seed) is a deterministic baseline. Every run builds its own value: a
// workload carries its deployment's driver state (Quagga's speakers) and is
// deployed once.
func Apps() []func(seed int64) *workload.Workload {
	return []func(int64) *workload.Workload{minCostApp, quaggaApp, chordApp, mapReduceApp}
}

// minCostApp is the paper's running example (§3.3, Figure 2): five routers,
// router b compromised.
func minCostApp(int64) *workload.Workload {
	w := mincost.New(mincost.Figure2Topology, types.Second, 30*types.Second)
	w.Compromised = []types.NodeID{"b"}
	return w
}

// quaggaApp is a small trace-driven BGP network (§7.1's Quagga shape) with
// the regional provider as30 compromised.
func quaggaApp(seed int64) *workload.Workload {
	const horizon = 20 * types.Second
	w, _ := bgp.New(bgp.DefaultTopology(), types.Second, horizon, &bgp.Trace{
		Seed: seed, Updates: 40, PrefixPool: 50, Start: types.Second, Span: horizon - 6*types.Second})
	w.Compromised = []types.NodeID{"as30"}
	return w
}

// chordApp is a 12-node Chord ring (§7.1's Chord configuration, scaled
// down) with one ring member compromised.
func chordApp(int64) *workload.Workload {
	p := chord.DefaultParams(12)
	p.Duration = 30 * types.Second
	p.Lookups = 24
	w := chord.New(p)
	w.Compromised = []types.NodeID{chord.NodeName(3)}
	return w
}

// mapReduceApp is a WordCount job (§7.1's Hadoop configuration, scaled down:
// 6 mappers, 3 reducers, one 2 KiB split each) with one mapper compromised.
// A mapper, not a reducer: the dataflow is one-way and a reducer never
// sends, so suppress, forge and equivocate would have nothing to act on
// there and would (correctly) fail "no provable evidence for a provable
// behavior".
func mapReduceApp(seed int64) *workload.Workload {
	const mappers = 6
	w := mapreduce.New(mapreduce.Job{
		Mappers: mappers, Reducers: 3, Splits: workload.Corpus(seed, mappers, 2<<10),
		StartAt: types.Second, ReduceAt: 15 * types.Second, Duration: 30 * types.Second,
	})
	w.Compromised = []types.NodeID{mapreduce.MapperName(2)}
	return w
}

// Query is one provenance question re-asked across runs.
type Query struct {
	Node  types.NodeID
	Tuple types.Tuple
	Opts  core.QueryOpts
}

func (q Query) String() string { return fmt.Sprintf("%s?%s", q.Node, q.Tuple) }

// Baseline is one adversary-free reference run: the honest queries it
// picked and their rendered answers.
type Baseline struct {
	Queries []Query
	Answers []string
}

// maxQueries bounds how many honest-node queries a conformance run
// compares.
const maxQueries = 3

// run builds the app for seed, deploys it on a fresh network (arming p on
// its compromised nodes, if non-nil; on store when non-nil), runs it to the
// horizon, and returns both.
func run(app func(int64) *workload.Workload, seed int64, p *Profile, store *StoreBacking) (*workload.Workload, *simnet.Net, error) {
	w := app(seed)
	cfg := simnet.DefaultConfig()
	cfg.Seed = seed
	if store != nil {
		cfg.Core.LogDir = store.LogDir
		cfg.Core.AuditCache = store.Cache
	}
	if p != nil {
		cfg.OnNode = p.On(w.Compromised).Hook()
	}
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		return nil, nil, err
	}
	net.Run(w.Horizon)
	return w, net, nil
}

// pickQueries selects up to maxQueries deterministic honest-node questions
// from an audited baseline graph: for each honest node in sorted order, the
// first open exist vertex (graph insertion order is deterministic).
func pickQueries(q *core.Querier, honest []types.NodeID) []Query {
	var out []Query
	g := q.Auditor.Graph()
	for _, id := range honest {
		if len(out) >= maxQueries {
			break
		}
		for _, v := range g.ByHost(id) {
			if v.Type == provgraph.VExist && v.Open() {
				out = append(out, Query{Node: id, Tuple: v.Tuple,
					Opts: core.QueryOpts{Mode: core.ModeExist, Scope: 8}})
				break
			}
		}
	}
	return out
}

// answers evaluates the queries, rendering each explanation tree (colors,
// notes, and timestamps included — the bit-identity the invariant compares)
// or the error text when the query cannot be answered.
func answers(q *core.Querier, queries []Query) []string {
	out := make([]string, len(queries))
	for i, qu := range queries {
		expl, err := q.Explain(qu.Node, qu.Tuple, qu.Opts)
		if err != nil {
			out[i] = "error: " + err.Error()
			continue
		}
		out[i] = expl.Format()
	}
	return out
}

// HonestNodes returns the deployment's nodes minus the compromised set, in
// deployment order.
func HonestNodes(all, compromised []types.NodeID) []types.NodeID {
	bad := nodeSet(compromised)
	var out []types.NodeID
	for _, id := range all {
		if !bad[id] {
			out = append(out, id)
		}
	}
	return out
}

// RunBaseline executes the adversary-free reference run for (app, seed), in
// memory or on store. It fails if the honest run itself produces any
// evidence — the no-false-alarm half of the accuracy guarantee.
func RunBaseline(app func(int64) *workload.Workload, seed int64, store *StoreBacking) (*Baseline, error) {
	a, net, err := run(app, seed, nil, store)
	if err != nil {
		return nil, err
	}
	// Store-backed runs re-deploy the same node names next run; release the
	// mapped tables before then (a no-op for in-memory runs).
	defer func() { _ = net.CloseLogs() }()
	q := net.QuerierFor(a)
	v := AuditAll(q, net.Maintainer)
	if len(v.Failures) != 0 || len(v.RedHosts) != 0 || len(v.Unresponsive) != 0 {
		return nil, fmt.Errorf("adversary: honest %s/seed=%d run yields evidence: %v", a.Name, seed, v)
	}
	if len(v.Notes) != 0 {
		return nil, fmt.Errorf("adversary: honest %s/seed=%d run reported missing acks: %v", a.Name, seed, v.Notes)
	}
	base := &Baseline{Queries: pickQueries(q, HonestNodes(net.Nodes(), a.Compromised))}
	if len(base.Queries) == 0 {
		return nil, fmt.Errorf("adversary: %s/seed=%d baseline offers no honest queries", a.Name, seed)
	}
	base.Answers = answers(q, base.Queries)
	return base, nil
}

// Result is one conformance run's outcome.
type Result struct {
	App      string
	Behavior string
	Class    Class
	Seed     int64

	Compromised      []types.NodeID
	Verdict          *Verdict
	Detected         bool
	AnswersIdentical bool
	// Violations lists every breach of the SNP invariant found in this run;
	// a conforming implementation leaves it empty.
	Violations []string
}

func (r *Result) String() string {
	return fmt.Sprintf("%-8s %-13s seed=%d class=%-9s detected=%-5v identical=%-5v %s",
		r.App, r.Behavior, r.Seed, r.Class, r.Detected, r.AnswersIdentical, r.Verdict)
}

// RunConformance arms one behavior on the app's compromised nodes, repeats
// the run and queries of base (RunBaseline of the same app, seed and store),
// and holds the verdict to the §4.2 guarantee (Verdict.CheckGuarantee).
func RunConformance(app func(int64) *workload.Workload, p Profile, seed int64, base *Baseline,
	store *StoreBacking) (*Result, error) {
	a, net, err := run(app, seed, &p, store)
	if err != nil {
		return nil, err
	}
	defer func() { _ = net.CloseLogs() }()
	q := net.QuerierFor(a)
	v := AuditAll(q, net.Maintainer)
	got := answers(q, base.Queries)
	v.Refresh(q, net.Maintainer) // queries may have appended evidence

	r := &Result{App: a.Name, Behavior: p.Name, Class: p.Class, Seed: seed,
		Compromised: a.Compromised, Verdict: v, Detected: v.Detected(a.Compromised)}
	r.AnswersIdentical = len(got) == len(base.Answers)
	for i := range got {
		if got[i] != base.Answers[i] {
			r.AnswersIdentical = false
			break
		}
	}

	r.Violations = v.CheckGuarantee(p.Class, a.Compromised, "", r.AnswersIdentical)
	return r, nil
}
