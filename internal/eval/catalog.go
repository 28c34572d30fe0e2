package eval

// This file is the one list of evaluation rows. snp-bench's -fig tables, the
// root go benchmarks and the golden test all iterate Catalog through Measure;
// none of them names a configuration or a figure itself, so a row added here
// appears in all three.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cryptoutil"
)

// Kind says how far a metric repeats.
type Kind uint8

const (
	// Count is an integer-valued deterministic series (bytes, messages,
	// operation counts): identical across runs, SimWorkers values and
	// GOARCH, so the golden file pins it.
	Count Kind = iota
	// Ratio is deterministic but computed in floating point from counts.
	Ratio
	// Wall is derived from wall-clock timing and differs run to run.
	Wall
)

// Metric is one reported number of a row, named as the go benchmarks
// report it.
type Metric struct {
	Name  string
	Value float64
	Kind  Kind
}

// Result is one measured row: its table lines and its metrics.
type Result struct {
	Lines   []string
	Metrics []Metric
}

// Row is one row of the evaluation.
type Row struct {
	// Name is the row's go-benchmark name ("Fig5Quagga").
	Name string
	// Figs are the snp-bench -fig values that print the row, under the
	// heading Table. A row without any is reported by the benchmarks and
	// the golden test only.
	Figs  []string
	Table string
	// Read produces the row from one finished run of Config under the
	// caller's options. A row that needs other runs — a changed option,
	// several sizes — sets Stage instead and does them itself.
	Config ConfigName
	Read   func(*RunResult) (Result, error)
	Stage  func(Options) (Result, error)
}

const (
	tableFig567   = "Figures 5 (traffic), 6 (log growth), 7 (CPU) — five configurations"
	tableFig8     = "Figure 8: query turnaround and downloads (and the Figure 4 query)"
	tableFig9     = "Figure 9: Chord scalability"
	tableBatching = "§5.6 batching ablation (Quagga)"
)

// Catalog lists every evaluation row in table order. Rows that read the
// same configuration are adjacent where the paper's figures describe the
// same run (5, 6 and 7; the two Quagga queries), so Measure runs it once.
func Catalog() []Row {
	var rows []Row
	for _, cfg := range AllConfigs {
		suffix := strings.ReplaceAll(string(cfg), "-", "")
		rows = append(rows,
			Row{Name: "Fig5" + suffix, Figs: []string{"5"}, Table: tableFig567, Config: cfg, Read: readFig5},
			Row{Name: "Fig6" + suffix, Figs: []string{"6"}, Table: tableFig567, Config: cfg, Read: readFig6},
			Row{Name: "Fig7" + suffix, Figs: []string{"7"}, Table: tableFig567, Config: cfg, Read: readFig7})
		if cfg == Quagga {
			// The same run through the sharded simulation driver (4 workers,
			// pinned so the parallel path runs even when GOMAXPROCS is 1).
			// Its series equals Fig5Quagga's, so the two ns/op values isolate
			// the scheduler's wall-clock effect; -sim-workers gives any
			// table the same treatment, hence no -fig value.
			rows = append(rows, Row{Name: "Fig5QuaggaParallel", Stage: func(o Options) (Result, error) {
				o.SimWorkers = 4
				res, err := Run(Quagga, o)
				if err != nil {
					return Result{}, err
				}
				defer res.Net.CloseLogs()
				return readFig5(res)
			}})
		}
	}
	query := func(name string, figs []string, cfg ConfigName, q func(*RunResult) (Fig8Row, error)) Row {
		return Row{Name: name, Figs: figs, Table: tableFig8, Config: cfg, Read: func(res *RunResult) (Result, error) {
			r, err := q(res)
			if err != nil {
				return Result{}, err
			}
			return Result{
				Lines: []string{r.String()},
				Metrics: []Metric{
					{"dl-bytes", float64(r.LogBytes + r.AuthBytes + r.CkptBytes), Count},
					{"turnaround-ms", r.Turnaround.Seconds() * 1000, Wall},
					{"answer-vertices", float64(r.Answer), Count},
				},
			}, nil
		}}
	}
	return append(rows,
		query("Fig8QuaggaDisappear", []string{"8"}, Quagga, QuaggaDisappearQuery),
		query("Fig8QuaggaBadGadget", []string{"8"}, Quagga, QuaggaBadGadgetQuery),
		query("Fig8ChordLookupSmall", []string{"8"}, ChordSmall, ChordLookupQuery),
		query("Fig8ChordLookupLarge", []string{"8"}, ChordLarge, ChordLookupQuery),
		query("Fig4HadoopSquirrel", []string{"4", "8"}, HadoopSmall, HadoopSquirrelQuery),
		Row{Name: "Fig9ChordScalability", Figs: []string{"9"}, Table: tableFig9, Stage: stageFig9},
		Row{Name: "BatchingAblation", Figs: []string{"batching"}, Table: tableBatching, Stage: stageBatching})
}

// Figs lists the -fig values the catalog defines, sorted.
func Figs() []string {
	var figs []string
	for _, row := range Catalog() {
		figs = append(figs, row.Figs...)
	}
	slices.Sort(figs)
	return slices.Compact(figs)
}

// Select returns the rows fig prints, in catalog order: one figure's, or
// every figure's for "all". An unknown value selects nothing.
func Select(fig string) []Row {
	var rows []Row
	for _, row := range Catalog() {
		if slices.Contains(row.Figs, fig) || (fig == "all" && len(row.Figs) > 0) {
			rows = append(rows, row)
		}
	}
	return rows
}

// Measure produces rows in order under o and hands each to emit, with the
// error that kept it from being measured, if any. Consecutive rows that
// read the same configuration share one run; store-backed logs are closed
// before the next run reuses their per-node paths.
func Measure(rows []Row, o Options, emit func(Row, Result, error)) {
	var res *RunResult
	closeRun := func() {
		if res != nil {
			_ = res.Net.CloseLogs()
			res = nil
		}
	}
	defer closeRun()
	for _, row := range rows {
		if row.Stage != nil {
			closeRun()
			r, err := row.Stage(o)
			emit(row, r, err)
			continue
		}
		if res == nil || res.Config != row.Config {
			closeRun()
			var err error
			if res, err = Run(row.Config, o); err != nil {
				emit(row, Result{}, fmt.Errorf("%s: %w", row.Config, err))
				continue
			}
		}
		r, err := row.Read(res)
		emit(row, r, err)
	}
}

func readFig5(res *RunResult) (Result, error) {
	r := Figure5(res)
	return Result{
		Lines: []string{"fig5: " + r.String()},
		Metrics: []Metric{
			{"traffic-factor", r.Factor, Ratio},
			{"baseline-bytes", float64(r.BaselineBytes), Count},
			{"auth-bytes", float64(r.AuthBytes), Count},
			{"ack-bytes", float64(r.AckBytes), Count},
			{"messages", float64(r.Messages), Count},
		},
	}, nil
}

func readFig6(res *RunResult) (Result, error) {
	r := Figure6(res)
	return Result{
		Lines: []string{"fig6: " + r.String()},
		Metrics: []Metric{
			{"MB/min/node", r.MBPerMin, Ratio},
			{"ckpt-bytes", float64(r.CkptBytes), Count},
		},
	}, nil
}

func readFig7(res *RunResult) (Result, error) {
	costs, err := MeasureCryptoCosts(cryptoutil.Ed25519SHA256)
	if err != nil {
		return Result{}, err
	}
	r := Figure7(res, costs)
	return Result{
		Lines: []string{"fig7: " + r.String()},
		Metrics: []Metric{
			{"cpu-pct/node", r.PerNodePct, Wall},
			{"signs", float64(r.Signs), Count},
			{"verifies", float64(r.Verifies), Count},
		},
	}, nil
}

func stageFig9(o Options) (Result, error) {
	sizes := []int{10, 50, 100, 250}
	if o.normalize().Scale >= 0.5 {
		sizes = append(sizes, 500)
	}
	rows, err := Figure9(sizes, o)
	if err != nil {
		return Result{}, err
	}
	var out Result
	for _, r := range rows {
		out.Lines = append(out.Lines, r.String())
		out.Metrics = append(out.Metrics, Metric{"B/s/node@N=" + strconv.Itoa(r.N), r.SNPBytesPerSec, Ratio})
	}
	return out, nil
}

func stageBatching(o Options) (Result, error) {
	without, with, err := BatchingAblation(o)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Lines: []string{"without: " + without.String(), "with:    " + with.String()},
		Metrics: []Metric{
			{"factor-unbatched", without.TrafficFactor, Ratio},
			{"factor-batched", with.TrafficFactor, Ratio},
		},
	}
	if with.Signs > 0 {
		reduction := float64(without.Signs) / float64(with.Signs)
		out.Lines = append(out.Lines, fmt.Sprintf("signature reduction: %.1fx; envelope reduction: %.0f%%",
			reduction, 100*(1-float64(with.Envelopes)/float64(without.Envelopes))))
		out.Metrics = append(out.Metrics, Metric{"sign-reduction", reduction, Ratio})
	}
	return out, nil
}
