package queryfront_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/queryfront"
	"repro/internal/types"
)

// forgedSends are three ways a planted audit-cache recording can lie about a
// send while keeping every count the cache checks. Each gets outs, a step's
// outputs, and the index of a send among them, and returns a forged copy.
var forgedSends = []struct {
	name  string
	forge func(outs []types.Output, i int) []types.Output
}{
	{"extra send output", func(outs []types.Output, i int) []types.Output {
		extra := outs[i]
		msg := *extra.Msg
		msg.Seq += 1000
		extra.Msg = &msg
		return append(slices.Clone(outs), extra)
	}},
	{"dropped send output", func(outs []types.Output, i int) []types.Output {
		return slices.Delete(slices.Clone(outs), i, i+1)
	}},
	{"re-addressed send", func(outs []types.Output, i int) []types.Output {
		outs = slices.Clone(outs)
		msg := *outs[i].Msg
		msg.Dst = "nowhere"
		outs[i].Msg = &msg
		return outs
	}},
}

// forging is a replica that forges its first send output. A sweep through it
// over an audit cache records the forgery as a clean replay's outputs: what an
// attacker who can write the cache directory plants.
type forging struct {
	types.Machine
	forge  func([]types.Output, int) []types.Output
	forged bool
}

func (m *forging) Step(ev types.Event) []types.Output {
	outs := m.Machine.Step(ev)
	if m.forged {
		return outs
	}
	i := slices.IndexFunc(outs, func(o types.Output) bool { return o.Kind == types.OutSend })
	if i < 0 {
		return outs
	}
	m.forged = true
	return m.forge(outs, i)
}

// TestPoisonedCacheNeverAccuses: recordings of forged sends planted in the
// audit cache of an honest live MinCost deployment color the victim red when
// trusted — the forging replica's own sweep and explanations show it — but
// may confirm, never accuse: a cached in-process AuditAll, and the frontend's
// audits over the same cache and its Explains, which read no recording,
// accuse nobody.
func TestPoisonedCacheNeverAccuses(t *testing.T) {
	app, err := live.AppByName("mincost")
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
	pick := h.NewQuerier()
	if v := adversary.AuditAll(pick, h.Maint); len(v.StrongNodes()) != 0 || len(v.Unresponsive) != 0 {
		t.Fatalf("honest deployment: %v", v)
	}
	// Causes and effects: an extra send is an effect of what derived it and
	// the cause of nothing.
	var queries []adversary.Query
	for _, qu := range adversary.ExplainQueries(pick, pick.Fetch.Nodes()) {
		effects := qu
		effects.Opts.Direction = core.Effects
		queries = append(queries, qu, effects)
	}
	victim := app.Nodes[0]

	for _, fs := range forgedSends {
		t.Run(fs.name, func(t *testing.T) {
			cache, err := core.OpenAuditCache(t.TempDir(), h.Cfg.Suite)
			if err != nil {
				t.Fatal(err)
			}
			defer cache.Close()
			cfg := h.Cfg
			cfg.AuditCache = cache
			forged := func(id types.NodeID) types.Machine {
				if id != victim {
					return app.Factory(id)
				}
				return &forging{Machine: app.Factory(id), forge: fs.forge}
			}
			forger := func(cfg core.Config) *core.Querier {
				return core.NewQuerier(core.NewAuditor(cfg, h.Dir, forged, h.Maint), pick.Fetch)
			}
			if v := adversary.AuditAll(forger(cfg), h.Maint); !slices.Contains(v.RedHosts, victim) {
				t.Fatalf("the planted recordings do not accuse %s: %v", victim, v)
			}

			hits := cache.Hits()
			cached := app.NewQuerier(cfg, h.Dir, h.Maint, pick.Fetch)
			if v := adversary.AuditAll(cached, h.Maint); len(v.StrongNodes()) != 0 {
				t.Errorf("cached AuditAll accuses %v", v.StrongNodes())
			}
			if cache.Hits() == hits {
				t.Error("the cached AuditAll read no planted recording")
			}

			srv, err := queryfront.Serve(queryfront.Config{
				Cluster: h.Cluster, Base: cfg, Dir: h.Dir,
				Factory: app.Factory, ConfigureQuerier: app.ConfigureQuerier, Sessions: 1,
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
			for _, targets := range [][]types.NodeID{nil, {victim}} {
				res, err := cl.Audit(targets...)
				if err != nil {
					t.Fatal(err)
				}
				if strong := res.Verdict().StrongNodes(); len(strong) != 0 {
					t.Errorf("frontend audit of %v accuses %v", targets, strong)
				}
			}
			reached := 0
			hits = cache.Hits()
			for _, qu := range queries {
				if want, err := adversary.ExplainBounded(forger(h.Cfg), qu); err == nil && len(want.FaultyNodes()) != 0 {
					reached++
				}
				got, err := cl.Explain(queryfront.ExplainRequest{Node: qu.Node, Tuple: qu.Tuple,
					Mode: qu.Opts.Mode, Direction: qu.Opts.Direction, Scope: qu.Opts.Scope})
				if err != nil {
					t.Fatalf("%v: %v", qu, err)
				}
				if len(got.Faulty) != 0 {
					t.Errorf("frontend Explain of %v names %v faulty", qu, got.Faulty)
				}
			}
			if reached == 0 {
				t.Error("no question's explanation reaches the forged send: the Explain rows test nothing")
			}
			if cache.Hits() != hits {
				t.Errorf("the frontend's Explains read %d recordings: they replay through a replica", cache.Hits()-hits)
			}
		})
	}
}
