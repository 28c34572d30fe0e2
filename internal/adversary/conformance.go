package adversary

import (
	"fmt"
	"slices"
	"strings"

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

// StoreBacking selects on-disk backing for simulated runs: store-backed
// logs and (optionally) a persistent audit cache shared across runs. Sharing
// one LogDir and Cache across an app's adversary-free run and its armed
// re-runs is deliberate: successive runs re-deploy the same node names, so
// the cache accumulates entries for chains that no longer exist — exactly
// the stale state that must never help an adversary look honest or frame an
// honest node (cache keys pin the head chain hash, so a diverged chain can
// only miss).
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

// SimApp returns the Apps() entry named name, built for seed.
func SimApp(name string, seed int64) *workload.Workload {
	for _, app := range Apps() {
		if w := app(seed); w.Name == name {
			return w
		}
	}
	return nil
}

// Query is one provenance question re-asked across runs.
type Query struct {
	Node  types.NodeID
	Tuple types.Tuple
	Opts  core.QueryOpts
}

func (q Query) String() string { return fmt.Sprintf("%s?%s", q.Node, q.Tuple) }

// maxQueries bounds how many honest-node questions a simulated row asks.
const maxQueries = 3

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

// Result is one simulated row's outcome: its verdict, and its answers to
// the honest questions of the app's adversary-free run.
type Result struct {
	App      string
	Behavior string
	Class    Class
	Seed     int64

	Compromised      []types.NodeID
	Verdict          *Verdict
	Detected         bool
	AnswersIdentical bool
	Queries          []Query
	Answers          []string
}

func (r *Result) String() string {
	return fmt.Sprintf("%-8s %-13s seed=%d class=%-9s detected=%-5v identical=%-5v %s",
		r.App, r.Behavior, r.Seed, r.Class, r.Detected, r.AnswersIdentical, r.Verdict)
}

// Simulate is the simulator's driver: it deploys w with row armed on a fresh
// network (on store, when non-nil), runs it to the horizon, audits it whole
// and asks base's questions again. base is the Result of the Honest row of
// w's app and seed; for that row it is nil, and Simulate picks the questions
// and fails unless the run yields no evidence and no note at all.
func Simulate(w *workload.Workload, row Row, store *StoreBacking, base *Result) (*Result, error) {
	cfg := simnet.DefaultConfig()
	cfg.Seed, cfg.OnNode = row.Seed, row.Plan(w).Hook()
	if store != nil {
		cfg.Core.LogDir, cfg.Core.AuditCache = store.LogDir, store.Cache
	}
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		return nil, err
	}
	// A store-backed row's node names are re-deployed by the next row.
	defer func() { _ = net.CloseLogs() }()
	net.Run(w.Horizon)
	q := net.QuerierFor(w)
	p, _ := ProfileByName(row.Behavior)
	r := &Result{App: w.Name, Behavior: row.Behavior, Class: p.Class, Seed: row.Seed,
		Compromised: row.Compromised(w), Verdict: AuditAll(q, net.Maintainer)}
	if base == nil {
		if v := r.Verdict; len(v.StrongNodes())+len(v.Unresponsive)+len(v.Notes) != 0 {
			return nil, fmt.Errorf("adversary: honest %s/seed=%d run yields evidence: %v %v", w.Name, row.Seed, v, v.Notes)
		}
		base = &Result{Queries: pickQueries(q, HonestNodes(net.Nodes(), w.Compromised))}
		if len(base.Queries) == 0 {
			return nil, fmt.Errorf("adversary: %s/seed=%d baseline offers no honest queries", w.Name, row.Seed)
		}
		r.Class, base.Answers = Benign, answers(q, base.Queries)
	}
	r.Queries, r.Answers = base.Queries, answers(q, base.Queries)
	r.Verdict.Refresh(q, net.Maintainer) // queries may have appended evidence
	r.Detected = r.Verdict.Detected(r.Compromised)
	r.AnswersIdentical = slices.Equal(r.Answers, base.Answers)
	return r, nil
}

// Honest is the behaviour of a row that arms nothing and compromises
// nobody: any provable evidence in it is a false accusation.
const Honest = "honest"

// Row is one line of the conformance table. Each column deploys its own
// sizing of App, whose compromised set and Victim the row's are.
type Row struct {
	App      string
	Behavior string // a Catalog() name, or Honest
	Seed     int64
	// Modifier names a fault plan, a crash plan or a partition only the
	// column that declares it applies; "" for none. CutsVictim declares the
	// one difference from the simulator a row may have: the modifier cuts
	// the app's Victim off, which must then be an unresponsive lead.
	Modifier   string
	CutsVictim bool
}

// Compromised returns the nodes row arms in w: none for an Honest row.
func (r Row) Compromised(w *workload.Workload) []types.NodeID {
	if r.Behavior == Honest {
		return nil
	}
	return w.Compromised
}

// Plan arms row's behaviour on row.Compromised(w).
func (r Row) Plan(w *workload.Workload) Plan {
	p, _ := ProfileByName(r.Behavior)
	return p.On(r.Compromised(w))
}

// Tester is what a Column runs on: *testing.T, which the package takes as a
// type parameter so that no binary importing it links the test framework.
type Tester[T any] interface {
	Run(name string, f func(T)) bool
	Log(args ...any)
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Column is one execution mode of the table: the whole catalog at seed 1 on
// every app it hosts, fault-free, then its Extra rows. App builds the mode's
// sizing of an app, Path names a row's subtest (one level per "/"), and
// Drive deploys w with row armed (row.Plan, row.Modifier), runs and audits
// it, and makes the checks that belong to its mode alone. A Short column
// (a wire column under -short) runs its first app's tamper-log row alone.
type Column[T Tester[T]] struct {
	Apps  []string
	Extra []Row
	Short bool
	App   func(name string, seed int64) *workload.Workload
	Path  func(Row) string
	Drive func(t T, row Row, w *workload.Workload) *Verdict // nil: the simulator's own column
}

// Run runs c's rows as subtests of t. Each row runs in memory on the
// simulator first (in c's sizing, when c is the simulator's column), whose
// Result is logged and held to Verdict.CheckGuarantee and to the outcome §4.2
// owes: no honest node accused, the whole compromised set convicted for a
// Provable behaviour and nobody otherwise. Then c drives it, and its Outcome
// must equal the simulator's, plus the row's declared cut-off victim.
func (c Column[T]) Run(t T) {
	var rows []Row
	for _, app := range c.Apps {
		for _, p := range Catalog() {
			rows = append(rows, Row{App: app, Behavior: p.Name, Seed: 1})
		}
	}
	if rows = append(rows, c.Extra...); c.Short {
		rows = []Row{{App: c.Apps[0], Behavior: "tamper-log", Seed: 1}}
	}
	slices.SortStableFunc(rows, func(a, b Row) int { return strings.Compare(c.Path(a), c.Path(b)) })
	sim := SimApp
	if c.Drive == nil {
		sim = c.App
	}
	bases := map[Row]*Result{}
	nest(t, rows, func(r Row) []string { return strings.Split(c.Path(r), "/") }, func(t T, row Row) {
		key := Row{App: row.App, Behavior: Honest, Seed: row.Seed}
		ref, err := bases[key], error(nil)
		if ref == nil {
			if ref, err = Simulate(sim(row.App, row.Seed), key, nil, nil); err != nil {
				t.Fatalf("baseline: %v", err)
			}
			bases[key] = ref
		}
		if row.Behavior != Honest {
			if ref, err = Simulate(sim(row.App, row.Seed), row, nil, ref); err != nil {
				t.Fatalf("simulator: %v", err)
			}
		}
		t.Log(ref)
		for _, v := range ref.Verdict.CheckGuarantee(ref.Class, ref.Compromised, "", ref.AnswersIdentical) {
			t.Errorf("invariant violated: %s", v)
		}
		convicted, want := 0, ref.Verdict.Outcome(ref.Compromised)
		if ref.Class == Provable {
			convicted = len(ref.Compromised)
		}
		if len(want.Accused) != 0 || want.Convicted != convicted {
			t.Errorf("simulator outcome %+v, want no honest node accused and %d convicted", want, convicted)
		}
		if c.Drive == nil {
			return
		}
		w := c.App(row.App, row.Seed)
		if row.CutsVictim {
			want.CutOff = append(want.CutOff, w.Victim)
		}
		v := c.Drive(t, row, w)
		if got := v.Outcome(row.Compromised(w)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("outcome %+v, the simulator's %+v\nfailures: %v\nunresponsive: %v", got, want, v.Failures, v.Unresponsive)
		}
	})
}

// nest runs rows, sorted by path, as subtests of t, one level per path
// segment; the rows whose paths begin alike share a level.
func nest[T Tester[T]](t T, rows []Row, path func(Row) []string, run func(T, Row)) {
	for len(rows) > 0 {
		head, n := path(rows[0])[0], 1
		for n < len(rows) && path(rows[n])[0] == head {
			n++
		}
		g := rows[:n]
		rows = rows[n:]
		t.Run(head, func(t T) {
			if len(path(g[0])) == 1 {
				run(t, g[0])
				return
			}
			nest(t, g, func(r Row) []string { return path(r)[1:] }, run)
		})
	}
}
