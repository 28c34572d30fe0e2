package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSummarizeMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := summarize(xs)
	want := summary{N: 10, Min: 1, Q1: 2.75, Median: 5.5, Q3: 8.25, Max: 10}
	if s != want {
		t.Fatalf("summarize = %+v, want %+v", s, want)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1, 2, 3]
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("three samples: %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 || s.N != 1 {
		t.Errorf("one sample: %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("no samples: %+v", s)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{50: 3, 95: 5, 100: 5, 20: 1, 21: 2} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{2, 1}, 50); got != 1 {
		t.Errorf("median of two = %v, want the smaller", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{
		9: 0, 19: 0, 20: 50, 39: 50, 40: 75, 100: 90, 199: 90, 200: 95, 216: 95, 360: 95, 1000: 99, 10000: 99.9,
	} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestStopwatchNormalisesBySegment pins the arithmetic of host.go: every
// segment is divided by the mean slowness of its two ends, and time between
// pause and resume counts for nothing.
func TestStopwatchNormalisesBySegment(t *testing.T) {
	h := newHost()
	// Freeze the probe: lastAt in the future means every probe is "fresh".
	set := func(s float64) { h.last, h.lastAt = s, time.Now().Add(time.Hour) }
	set(2)
	sw := h.start()
	time.Sleep(20 * time.Millisecond)
	set(4)
	first := sw.pause()
	if first.raw < 0.02 || math.Abs(first.norm-first.raw/3) > 1e-12 {
		t.Errorf("segment between slowness 2 and 4: %+v, want norm = raw/3", first)
	}
	time.Sleep(10 * time.Millisecond) // paused
	set(1)
	sw.resume()
	time.Sleep(10 * time.Millisecond)
	total := sw.pause()
	second := lap{total.raw - first.raw, total.norm - first.norm}
	if second.raw < 0.01 || second.raw > 0.019 || math.Abs(second.norm-second.raw) > 1e-12 {
		t.Errorf("second segment at slowness 1: %+v, want norm = raw and the pause left out", second)
	}
	// A real probe lands near 1 on the host class refNominal was taken on,
	// and anywhere positive elsewhere.
	h.lastAt = time.Time{}
	if s := h.slowness(); s <= 0 || len(h.seen) != 1 {
		t.Errorf("probe = %v, seen %d", s, len(h.seen))
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{Name: "query", Start: 0, End: 100, Parent: -1, Query: 1},
		{Name: "a", Start: 10, End: 30, Parent: 0, Query: 1},
		{Name: "b", Start: 20, End: 50, Parent: 0, Query: 1},    // overlaps a: cover is 10..50
		{Name: "a", Start: 90, End: 120, Parent: 0, Query: 1},   // runs past its parent: clipped at 100
		{Name: "leaf", Start: 12, End: 18, Parent: 1, Query: 1}, // grandchild: only a's business
		{Name: "query", Start: 200, End: 260, Parent: -1, Query: 2},
		{Name: "a", Start: 210, End: 220, Parent: 5, Query: 2},
	}
	want := []int64{50, 14, 30, 30, 6, 50, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	all := func(int) bool { return true }
	if xs := perQuery(spans, got, "a", false, all); len(xs) != 2 || xs[0] != 44e-6 || xs[1] != 10e-6 {
		t.Errorf("per-query self of a = %v", xs)
	}
	if xs := perQuery(spans, got, "a", true, all); xs[0] != 50e-6 {
		t.Errorf("per-query total of a = %v", xs)
	}
	if xs := perQuery(spans, got, "a", false, func(q int) bool { return q == 2 }); len(xs) != 1 || xs[0] != 10e-6 {
		t.Errorf("filtered per-query self of a = %v", xs)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", -1, 0)) // untraced runs share the traced code
}

func TestJudge(t *testing.T) {
	flat := func(m float64) summary { return summary{N: 5, Min: m, Q1: m, Median: m, Q3: m, Max: m} }
	wide := func(m, iqr float64) summary {
		return summary{N: 5, Min: m - iqr, Q1: m - iqr/2, Median: m, Q3: m + iqr/2, Max: m + iqr}
	}
	lower := metricDef{Name: "cold_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	share := metricDef{Name: "failed_share", Better: "lower"}
	for _, c := range []struct {
		name       string
		def        metricDef
		base, cand summary
		want       string
	}{
		{"slower within bound", lower, flat(1), flat(1.09), verdictOK},
		{"slower beyond bound", lower, flat(1), flat(1.11), verdictWorse},
		{"faster is never worse", lower, flat(1), flat(0.5), verdictOK},
		{"throughput down beyond bound", higher, flat(100), flat(89), verdictWorse},
		{"throughput down within bound", higher, flat(100), flat(91), verdictOK},
		{"throughput up", higher, flat(100), flat(150), verdictOK},
		{"baseline too noisy to tell", lower, wide(1, 0.2), flat(1.5), verdictUnresolved},
		{"candidate too noisy to tell", lower, flat(1), wide(1, 0.2), verdictUnresolved},
		{"failures may not rise", share, flat(0), flat(0.001), verdictWorse},
		{"failures unchanged", share, flat(0), flat(0), verdictOK},
	} {
		if got := judge(c.def, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResultsExitCode(t *testing.T) {
	file := func(qps, failed float64) *resultFile {
		return &resultFile{Results: map[string]workloadReport{wlQueryWire: {Metrics: map[string]metricReport{
			"queries_per_s": {"1/s", summary{N: 3, Min: qps, Q1: qps, Median: qps, Q3: qps, Max: qps}},
			"failed_share":  {"ratio", summary{N: 1, Median: failed}},
		}}}}
	}
	var out bytes.Buffer
	if code := compareResults(&out, file(100, 0), file(95, 0)); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "queries_per_s") || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("missing row:\n%s", out.String())
	}
	if code := compareResults(&out, file(100, 0), file(70, 0)); code != 1 {
		t.Errorf("regression: exit %d", code)
	}
	if code := compareResults(&out, file(100, 0), file(100, 0.01)); code != 1 {
		t.Errorf("risen failed_share: exit %d", code)
	}
}

func TestTimebox(t *testing.T) {
	n := 0
	timebox(3, 5, 0, func(int) { n++ })
	if n != 3 {
		t.Errorf("an exhausted box ran %d repeats, want the minimum 3", n)
	}
	n = 0
	timebox(1, 4, 3600, func(int) { n++ })
	if n != 4 {
		t.Errorf("an open box ran %d repeats, want the maximum 4", n)
	}
}

// TestBenchmarkJSONMatchesTables keeps the driver's view of the benchmark
// (BENCHMARK.json) and the program's tables from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, allWorkloads[i])
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: %+v, want %s/%s/%s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s[%d] %s: bound differs from %v", kind, i, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, contractMetrics, true)
	check("per_layer", spec.PerLayer, layerMetrics, false)
}

// TestSmoke runs all four workloads, traced, at the smallest sizes: the
// benchmark still builds against the packages it measures and every
// correctness check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four deployments; skipped under -short")
	}
	dir := t.TempDir()
	cfg := config{seed: 1, smoke: true, trace: true, tmpDir: dir, traceDir: dir, sz: smokeSizes()}
	for _, name := range allWorkloads {
		res := runWorkload(cfg, name)
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Problems)
		}
		for _, d := range endToEnd {
			if d.on(name) && len(res.Samples[d.Name]) == 0 {
				t.Errorf("%s: no sample of end-to-end metric %s", name, d.Name)
			}
		}
		for _, d := range layerMetrics {
			if d.on(name) && len(res.Samples[d.Name]) == 0 {
				t.Errorf("%s: no sample of layer metric %s", name, d.Name)
			}
		}
		for _, d := range contractMetrics {
			if res.median(d.Name) <= 0 {
				t.Errorf("%s: %s = %v, must be positive", name, d.Name, res.median(d.Name))
			}
		}
		var line struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(contractLine(res, true)), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || len(line.Metrics) != len(layerMetrics) {
			t.Errorf("%s: traced result line has %d metrics (want %d), correct=%v", name, len(line.Metrics), len(layerMetrics), line.Correct)
		}
		if _, err := os.Stat(dir + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
