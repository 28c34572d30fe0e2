package eval

import (
	"testing"
)

// TestQueryThroughput smoke-tests the qps harness at tiny scale: both
// passes complete, the cold pass populates the persistent audit cache, and
// the warm pass is served entirely from it (QueryThroughput itself fails on
// any warm miss).
func TestQueryThroughput(t *testing.T) {
	rows, err := QueryThroughput(Options{Scale: 0.02}, 3, 9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	cold, warm := rows[0], rows[1]
	t.Log(cold)
	t.Log(warm)
	if cold.Label != "cold-cache" || warm.Label != "warm-cache" {
		t.Fatalf("row labels = %q, %q", cold.Label, warm.Label)
	}
	if cold.Misses == 0 {
		t.Error("cold pass recorded no cache misses; the cache was never consulted")
	}
	if warm.Hits == 0 {
		t.Error("warm pass recorded no cache hits")
	}
	if warm.Misses != 0 {
		t.Errorf("warm pass missed %d times", warm.Misses)
	}
	for _, r := range rows {
		if r.QPS <= 0 || r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("%s: implausible latency stats: %+v", r.Label, r)
		}
	}
}
