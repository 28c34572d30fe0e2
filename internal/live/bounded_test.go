package live

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
)

// TestLiveBoundedExplainMatchesFull: over loopback TCP, on the fault-free
// plan, an Explain bounded the way the frontend bounds it (the retrieve
// request then carries evidence and an EndTime across the wire) renders byte
// for byte what one over whole logs renders, for every question
// adversary.ExplainQueries picks of an honest Chord deployment (its keep-alives outlast every horizon).
func TestLiveBoundedExplainMatchesFull(t *testing.T) {
	app := mustApp(t, "chord")
	h, err := New(app, Options{Seed: 1})
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
	queries := adversary.ExplainQueries(pick, pick.Fetch.Nodes())
	diffs, short := adversary.BoundedDiffs(func() *core.Querier { return h.NewQuerier() }, queries)
	for _, d := range diffs {
		t.Error(d)
	}
	t.Logf("%d questions, %d logs audited short of their head", len(queries), short)
	if short == 0 {
		t.Error("no bounded Explain stopped short of a log's head: the suite compared the full path with itself")
	}
}
