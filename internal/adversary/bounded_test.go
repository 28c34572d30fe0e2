package adversary

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// deploy runs w on a fresh simulator to its horizon with plan armed, on
// store when non-nil.
func deploy(t *testing.T, w *workload.Workload, seed int64, plan Plan, store *StoreBacking) *simnet.Net {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Seed, cfg.OnNode = seed, plan.Hook()
	if store != nil {
		cfg.Core.LogDir, cfg.Core.AuditCache = store.LogDir, store.Cache
	}
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(w.Horizon)
	return net
}

// TestBoundedExplainMatchesFull: on an honest run of every conformance app,
// in memory and on store with an audit cache, an Explain bounded the way the
// frontend bounds it renders byte for byte what one over whole logs renders,
// for each of ExplainQueries' questions. On store, the sweep that picks the
// questions leaves a recording of every whole log, and each bounded audit is
// then a hit on a prefix of one: a miss means horizons evict one another.
func TestBoundedExplainMatchesFull(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	short := map[string]int{}
	for _, app := range Apps() {
		for _, seed := range seeds {
			for _, backing := range []string{"memory", "store"} {
				name := app(seed).Name
				t.Run(name+"/"+backing, func(t *testing.T) {
					var store *StoreBacking
					if backing == "store" {
						cache, err := core.OpenAuditCache(filepath.Join(t.TempDir(), "cache"), nil)
						if err != nil {
							t.Fatal(err)
						}
						defer cache.Close()
						store = &StoreBacking{LogDir: filepath.Join(t.TempDir(), "logs"), Cache: cache}
					}
					w := app(seed)
					net := deploy(t, w, seed, nil, store)
					defer func() { _ = net.CloseLogs() }()
					pick := net.QuerierFor(w)
					if v := AuditAll(pick, net.Maintainer); len(v.StrongNodes()) != 0 {
						t.Fatalf("honest run yields evidence: %v", v)
					}
					queries := ExplainQueries(pick, net.Nodes())
					if len(queries) <= maxQueries {
						t.Fatalf("only pickQueries' %d questions: nothing crosses a node", len(queries))
					}
					var misses uint64
					if store != nil {
						misses = store.Cache.Misses()
					}
					diffs, n := BoundedDiffs(func() *core.Querier { return net.QuerierFor(w) }, queries)
					for _, d := range diffs {
						t.Error(d)
					}
					short[name] += n
					if store != nil && store.Cache.Misses() != misses {
						t.Errorf("%d audits missed a cache that holds every whole log", store.Cache.Misses()-misses)
					}
				})
			}
		}
	}
	// Quagga's trace and Chord's stabilization keep their logs growing past
	// every horizon; mincost and mapreduce fall silent within one.
	for _, name := range []string{"quagga", "chord"} {
		if short[name] == 0 {
			t.Errorf("%s: no bounded Explain stopped short of a log's head: the suite compared the full path with itself", name)
		}
	}
}

// TestBoundedExplainArmed: with every catalog behaviour armed on the app's
// compromised node, a bounded Explain of the honest nodes' questions
// implicates compromised nodes only, as one over whole logs does; and a fault
// that lies before every root — tamper-log doctors the first entry of
// whatever it serves — is red in both, on the same hosts.
func TestBoundedExplainArmed(t *testing.T) {
	for _, app := range Apps() {
		w := app(1)
		net := deploy(t, w, 1, nil, nil)
		pick := net.QuerierFor(w)
		AuditAll(pick, net.Maintainer)
		queries := ExplainQueries(pick, HonestNodes(net.Nodes(), w.Compromised))
		for _, p := range Catalog() {
			t.Run(w.Name+"/"+p.Name, func(t *testing.T) {
				aw := app(1)
				anet := deploy(t, aw, 1, p.On(aw.Compromised), nil)
				red := 0
				for _, qu := range queries {
					full, ferr := anet.QuerierFor(aw).Explain(qu.Node, qu.Tuple, qu.Opts)
					bounded, berr := ExplainBounded(anet.QuerierFor(aw), qu)
					if ferr != nil || berr != nil {
						continue // the behaviour kept the tuple from existing
					}
					for _, id := range bounded.FaultyNodes() {
						if !slices.Contains(aw.Compromised, id) {
							t.Errorf("%v: bounded Explain implicates honest %s:\n%s", qu, id, bounded.Format())
						}
					}
					if p.Name != "tamper-log" {
						continue
					}
					if !slices.Equal(full.FaultyNodes(), bounded.FaultyNodes()) {
						t.Errorf("%v: whole logs implicate %v, prefixes %v", qu, full.FaultyNodes(), bounded.FaultyNodes())
					}
					red += len(bounded.FaultyNodes())
				}
				if p.Name == "tamper-log" && red == 0 {
					t.Errorf("no question's walk crossed %v: the row lost its teeth", aw.Compromised)
				}
			})
		}
	}
}
