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

// App is one application configuration the conformance suite runs behaviors
// against. Deploy builds the workload on a fresh network (the same seed and
// schedule every time, so the adversary-free run is a deterministic
// baseline); Compromised names the node(s) a behavior is armed on.
type App struct {
	Name        string
	Horizon     types.Time
	Compromised []types.NodeID
	Deploy      func(net *simnet.Net, seed int64) error
	// NewQuerier builds the application's query session (BGP installs its
	// maybe-rule validator); nil uses Factory directly.
	NewQuerier func(net *simnet.Net) *core.Querier
	// Store, when non-nil, backs every run of the app with on-disk state:
	// store-backed logs and (optionally) a persistent audit cache shared
	// across runs. Nil keeps the suite's default in-memory runs.
	Store *StoreBacking
}

// StoreBacking selects on-disk backing for conformance runs. Sharing one
// LogDir and Cache across a baseline and its adversarial re-runs is
// deliberate: successive runs re-deploy the same node names, so the cache
// accumulates entries for chains that no longer exist — exactly the stale
// state that must never help an adversary look honest or frame an honest
// node (cache keys pin the head chain hash, so a diverged chain can only
// miss).
type StoreBacking struct {
	LogDir string
	Cache  *core.AuditCache
}

// MinCostApp is the paper's running example (§3.3, Figure 2): five routers,
// router b compromised.
func MinCostApp() App {
	return App{
		Name:        "mincost",
		Horizon:     30 * types.Second,
		Compromised: []types.NodeID{"b"},
		Deploy: func(net *simnet.Net, seed int64) error {
			return mincost.Deploy(net, mincost.Figure2Topology, types.Second)
		},
		NewQuerier: func(net *simnet.Net) *core.Querier {
			return net.NewQuerier(mincost.Factory())
		},
	}
}

// QuaggaApp is a small trace-driven BGP network (§7.1's Quagga shape) with
// the regional provider as30 compromised.
func QuaggaApp() App {
	horizon := 20 * types.Second
	return App{
		Name:        "quagga",
		Horizon:     horizon,
		Compromised: []types.NodeID{"as30"},
		Deploy: func(net *simnet.Net, seed int64) error {
			d, err := bgp.Deploy(net, bgp.DefaultTopology(), types.Second, horizon)
			if err != nil {
				return err
			}
			d.InjectTrace(seed, 40, 50, types.Second, horizon-6*types.Second)
			return nil
		},
		NewQuerier: func(net *simnet.Net) *core.Querier {
			q := net.NewQuerier(bgp.Factory())
			q.Auditor.Builder.MaybeValidator = bgp.ValidateExport
			return q
		},
	}
}

// ChordApp is a 12-node Chord ring (§7.1's Chord configuration, scaled
// down) with one ring member compromised.
func ChordApp() App {
	return App{
		Name:        "chord",
		Horizon:     30 * types.Second,
		Compromised: []types.NodeID{chord.NodeName(3)},
		Deploy: func(net *simnet.Net, seed int64) error {
			p := chord.DefaultParams(12)
			p.Duration = 30 * types.Second
			p.Lookups = 24
			_, err := chord.Deploy(net, p)
			return err
		},
		NewQuerier: func(net *simnet.Net) *core.Querier {
			return net.NewQuerier(chord.Factory())
		},
	}
}

// MapReduceApp is a WordCount job (§7.1's Hadoop configuration, scaled down:
// 6 mappers, 3 reducers, one 2 KiB split each) with one mapper compromised.
// A mapper, not a reducer: the dataflow is one-way and a reducer never
// sends, so suppress, forge and equivocate would have nothing to act on
// there and would (correctly) fail "no provable evidence for a provable
// behavior".
func MapReduceApp() App {
	const mappers, reducers = 6, 3
	var reducerNames []types.NodeID
	for j := 0; j < reducers; j++ {
		reducerNames = append(reducerNames, mapreduce.ReducerName(j))
	}
	return App{
		Name:        "mapreduce",
		Horizon:     30 * types.Second,
		Compromised: []types.NodeID{mapreduce.MapperName(2)},
		Deploy: func(net *simnet.Net, seed int64) error {
			_, err := mapreduce.Deploy(net, mapreduce.Job{
				Mappers: mappers, Reducers: reducers,
				Splits:  workload.Corpus(seed, mappers, 2<<10),
				StartAt: types.Second, ReduceAt: 15 * types.Second,
			})
			return err
		},
		NewQuerier: func(net *simnet.Net) *core.Querier {
			return net.NewQuerier(mapreduce.Factory(reducerNames))
		},
	}
}

// Apps returns the conformance application set in a fixed order.
func Apps() []App {
	return []App{MinCostApp(), QuaggaApp(), ChordApp(), MapReduceApp()}
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

// run deploys the app on a fresh network (arming plan, if any), runs it to
// the horizon, and returns the network.
func (a App) run(seed int64, plan Plan) (*simnet.Net, error) {
	cfg := simnet.DefaultConfig()
	cfg.Seed = seed
	if a.Store != nil {
		cfg.Core.LogDir = a.Store.LogDir
		cfg.Core.AuditCache = a.Store.Cache
	}
	if plan != nil {
		cfg.OnNode = plan.Hook()
	}
	net := simnet.New(cfg)
	if err := a.Deploy(net, seed); err != nil {
		return nil, err
	}
	net.Run(a.Horizon)
	return net, nil
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

// RunBaseline executes the adversary-free reference run for (app, seed). It
// fails if the honest run itself produces any evidence — the no-false-alarm
// half of the accuracy guarantee.
func (a App) RunBaseline(seed int64) (*Baseline, error) {
	net, err := a.run(seed, nil)
	if err != nil {
		return nil, err
	}
	// Store-backed runs re-deploy the same node names next run; release the
	// mapped tables before then (a no-op for in-memory runs).
	defer func() { _ = net.CloseLogs() }()
	q := a.NewQuerier(net)
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
// the baseline's run and queries, and holds the verdict to the §4.2
// guarantee (Verdict.CheckGuarantee). base may be nil, in which case the
// baseline is computed on the fly.
func (a App) RunConformance(p Profile, seed int64, base *Baseline) (*Result, error) {
	if base == nil {
		var err error
		if base, err = a.RunBaseline(seed); err != nil {
			return nil, err
		}
	}
	net, err := a.run(seed, p.On(a.Compromised))
	if err != nil {
		return nil, err
	}
	defer func() { _ = net.CloseLogs() }()
	q := a.NewQuerier(net)
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
