package eval

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/catalog.golden from this run")

const (
	goldenPath  = "testdata/catalog.golden"
	goldenRegen = "go test ./internal/eval -run TestCatalogGolden -update"
	goldenScale = Scale(0.02) // the go benchmarks' scale
)

// pinned is one catalog row's Count metrics, as the golden file stores them.
type pinned struct {
	row     string
	metrics []Metric
}

func (p pinned) String() string {
	var sb strings.Builder
	sb.WriteString(p.row)
	for _, m := range p.metrics {
		fmt.Fprintf(&sb, " %s=%d", m.Name, int64(m.Value))
	}
	return sb.String()
}

// measureCatalog runs every catalog row at the golden scale and returns its
// deterministic metrics: the Count ones as pinned rows, the Ratio ones by
// "row/metric" for the serial-vs-sharded comparison.
func measureCatalog(t *testing.T, simWorkers int) ([]pinned, map[string]float64) {
	t.Helper()
	var counts []pinned
	ratios := map[string]float64{}
	Measure(Catalog(), Options{Scale: goldenScale, Seed: 1, SimWorkers: simWorkers}, func(row Row, r Result, err error) {
		if err != nil {
			t.Fatalf("%s (SimWorkers=%d): %v", row.Name, simWorkers, err)
		}
		p := pinned{row: row.Name}
		for _, m := range r.Metrics {
			switch m.Kind {
			case Count:
				if m.Value != float64(int64(m.Value)) {
					t.Fatalf("%s %s = %v is declared Count but is not an integer", row.Name, m.Name, m.Value)
				}
				p.metrics = append(p.metrics, m)
			case Ratio:
				ratios[row.Name+"/"+m.Name] = m.Value
			}
		}
		counts = append(counts, p)
	})
	return counts, ratios
}

func parseGolden(data string) ([]pinned, error) {
	var rows []pinned
	for _, line := range strings.Split(data, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(line, "#") {
			continue
		}
		p := pinned{row: fields[0]}
		for _, f := range fields[1:] {
			name, val, ok := strings.Cut(f, "=")
			n, err := strconv.ParseInt(val, 10, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("bad golden field %q in row %s", f, p.row)
			}
			p.metrics = append(p.metrics, Metric{Name: name, Value: float64(n)})
		}
		rows = append(rows, p)
	}
	return rows, nil
}

// diffGolden lists every disagreement between measured and golden rows.
func diffGolden(got, want []pinned) []string {
	names := func(ps []pinned) string {
		var out []string
		for _, p := range ps {
			out = append(out, p.row)
		}
		return strings.Join(out, " ")
	}
	if names(got) != names(want) {
		return []string{fmt.Sprintf("row set differs:\n  catalog: %s\n  golden:  %s", names(got), names(want))}
	}
	var diffs []string
	for i, g := range got {
		wantVals := map[string]float64{}
		for _, m := range want[i].metrics {
			wantVals[m.Name] = m.Value
		}
		for _, m := range g.metrics {
			w, ok := wantVals[m.Name]
			delete(wantVals, m.Name)
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s %s = %d, not in the golden file", g.row, m.Name, int64(m.Value)))
			} else if w != m.Value {
				diffs = append(diffs, fmt.Sprintf("%s %s = %d, golden %d", g.row, m.Name, int64(m.Value), int64(w)))
			}
		}
		for name := range wantVals {
			diffs = append(diffs, fmt.Sprintf("%s %s is in the golden file but the catalog no longer reports it", g.row, name))
		}
	}
	return diffs
}

// TestCatalogGolden pins every integer-valued deterministic series of the
// evaluation, at the go benchmarks' scale, to the checked-in golden file —
// through the serial scheduler and through the sharded one — so "series
// bit-identical to the parent commit" is this test rather than a manual
// diff of benchmark columns. Ratio metrics are floating point and stay out
// of the file; they must still agree between the two schedulers.
func TestCatalogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation twice")
	}
	serial, serialRatios := measureCatalog(t, 0)
	if *update {
		var sb strings.Builder
		fmt.Fprintf(&sb, "# Integer-valued deterministic series of eval.Catalog() at scale %v, seed 1.\n# Regenerate: %s\n", goldenScale, goldenRegen)
		for _, p := range serial {
			fmt.Fprintln(&sb, p)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseGolden(string(data))
	if err != nil {
		t.Fatal(err)
	}
	sharded, shardedRatios := measureCatalog(t, 4)
	for _, d := range diffGolden(serial, want) {
		t.Errorf("serial: %s", d)
	}
	for _, d := range diffGolden(sharded, want) {
		t.Errorf("SimWorkers=4: %s", d)
	}
	for name, v := range serialRatios {
		if shardedRatios[name] != v {
			t.Errorf("%s = %v serial, %v with SimWorkers=4", name, v, shardedRatios[name])
		}
	}
	if t.Failed() {
		t.Logf("if the series were meant to move, regenerate %s with: %s", goldenPath, goldenRegen)
	}
}

// TestDiffGolden checks that a moved number is reported by row, metric, got
// and want, and that a row missing on either side is reported as such.
func TestDiffGolden(t *testing.T) {
	want, err := parseGolden("# comment\nFig5X messages=10 ack-bytes=7\nFig6X ckpt-bytes=0\n")
	if err != nil {
		t.Fatal(err)
	}
	got := []pinned{
		{"Fig5X", []Metric{{"messages", 11, Count}, {"ack-bytes", 7, Count}}},
		{"Fig6X", []Metric{{"ckpt-bytes", 0, Count}}},
	}
	diffs := diffGolden(got, want)
	if len(diffs) != 1 || diffs[0] != "Fig5X messages = 11, golden 10" {
		t.Errorf("moved metric: got %q", diffs)
	}
	if diffs := diffGolden(got[:1], want); len(diffs) != 1 || !strings.Contains(diffs[0], "row set differs") {
		t.Errorf("dropped row: got %q", diffs)
	}
	if diffs := diffGolden(got, got); len(diffs) != 0 {
		t.Errorf("identical rows: got %q", diffs)
	}
}
