package queryfront_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/queryfront"
	"repro/internal/types"
)

// TestFrontExplainMatchesWholeLogs: the frontend bounds every Causes Explain
// to the root's causal horizon; for every question adversary.ExplainQueries
// picks of an honest live Chord deployment, its answer, asked twice, is byte
// for byte the explanation an in-process querier over whole logs renders.
// The answer says how much of which logs it audited, the same spans both
// times. A frontend with an audit cache reads and fills none for an Explain.
func TestFrontExplainMatchesWholeLogs(t *testing.T) {
	app, err := live.AppByName("chord")
	if err != nil {
		t.Fatal(err)
	}
	h, err := live.New(app, live.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	h.Settle()

	cacheDir := filepath.Join(t.TempDir(), "qfcache")
	cache, err := core.OpenAuditCache(cacheDir, h.Cfg.Suite)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	base := h.Cfg
	base.AuditCache = cache
	srv, err := queryfront.Serve(queryfront.Config{
		Cluster: h.Cluster, Base: base, Dir: h.Dir,
		Factory: app.Factory, ConfigureQuerier: app.ConfigureQuerier, Sessions: 2,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := queryfront.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pick := h.NewQuerier()
	if v := adversary.AuditAll(pick, h.Maint); len(v.StrongNodes()) != 0 || len(v.Unresponsive) != 0 {
		t.Fatalf("honest deployment: %v", v)
	}
	heads := map[types.NodeID]uint64{}
	for _, id := range pick.Fetch.Nodes() {
		_, heads[id], _, _ = pick.Auditor.AuditedSpan(id)
	}
	queries := adversary.ExplainQueries(pick, pick.Fetch.Nodes())
	first := make([]*queryfront.ExplainResult, len(queries))
	short := 0
	for pass, name := range []string{"first", "second"} {
		for i, qu := range queries {
			want, err := h.NewQuerier().Explain(qu.Node, qu.Tuple, qu.Opts)
			if err != nil {
				t.Fatalf("%v: %v", qu, err)
			}
			got, err := cl.Explain(queryfront.ExplainRequest{Node: qu.Node, Tuple: qu.Tuple, Mode: qu.Opts.Mode, Scope: qu.Opts.Scope})
			if err != nil {
				t.Fatalf("%v through the frontend (%s pass): %v", qu, name, err)
			}
			if got.Rendered != want.Format() || got.Vertices != want.Size() {
				t.Errorf("%v (%s pass):\nwhole logs:\n%sfrontend:\n%s", qu, name, want.Format(), got.Rendered)
			}
			if len(got.Faulty) != 0 || len(got.Unreachable) != 0 {
				t.Errorf("%v (%s pass): faulty %v, unreachable %v on an honest deployment", qu, name, got.Faulty, got.Unreachable)
			}
			if pass == 0 {
				first[i] = got
				rooted := false
				for _, sp := range got.Audited {
					if sp.From != 1 || sp.To > heads[sp.Node] || sp.Through == 0 {
						t.Errorf("%v: span %+v of a log of %d entries", qu, sp, heads[sp.Node])
					}
					if sp.Node == qu.Node {
						rooted = sp.To == heads[sp.Node]
					} else if sp.To < heads[sp.Node] {
						short++
					}
				}
				if !rooted {
					t.Errorf("%v: the root's log is not audited through its head: %+v", qu, got.Audited)
				}
				continue
			}
			if len(got.Audited) != len(first[i].Audited) {
				t.Fatalf("%v: second pass audited %+v, first pass %+v", qu, got.Audited, first[i].Audited)
			}
			for j, sp := range got.Audited {
				if sp != first[i].Audited[j] {
					t.Errorf("%v: second pass audited %+v, first pass %+v", qu, sp, first[i].Audited[j])
				}
			}
		}
	}
	if short == 0 {
		t.Error("no Explain stopped short of a crossed log's head: the frontend never bounded one")
	}
	if names, _ := filepath.Glob(filepath.Join(cacheDir, "*.audit")); cache.Hits()+cache.Misses() != 0 || len(names) != 0 {
		t.Errorf("Explains read the audit cache: %d hits, %d misses, files %v", cache.Hits(), cache.Misses(), names)
	}
}
