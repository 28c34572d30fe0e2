package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/eval"
	"repro/internal/multiproc"
)

// b2f encodes a boolean into the metrics map (1 = true).
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// BenchResult is one benchmark's wall-clock cost and reported metric series,
// mirroring what `go test -bench` prints for the same name. NsPerOp is the
// steady-state (process-warm) mean, like go test's; ColdNsPerOp is the
// first run in a fresh-cache state, so the two together separate algorithmic
// wins from verification-cache warm-up.
type BenchResult struct {
	Name        string             `json:"name"`
	NsPerOp     int64              `json:"ns_per_op"`
	ColdNsPerOp int64              `json:"cold_ns_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
}

// BenchFile is the schema of BENCH_results.json. Baseline carries the
// results of an earlier revision (typically the previous PR) so speedups are
// computable without checking out old code.
type BenchFile struct {
	GeneratedBy    string        `json:"generated_by"`
	Scale          float64       `json:"scale"`
	Results        []BenchResult `json:"results"`
	Baseline       []BenchResult `json:"baseline,omitempty"`
	BaselineSource string        `json:"baseline_source,omitempty"`
}

// benchName converts a config name to the benchmark naming scheme
// ("Chord-Small" → "ChordSmall").
func benchName(prefix string, cfg eval.ConfigName) string {
	return "Benchmark" + prefix + strings.ReplaceAll(string(cfg), "-", "")
}

// timed runs f once as a separately timed warmup and then iters times,
// returning (steady-state mean, warmup duration). The mean matches what
// `go test -bench -benchtime=<iters>x` reports as ns/op (the benchmark
// framework's sizing probe plays the role of the warmup run there):
// process-warm state — key pools and the verification cache — is included,
// which is also the steady state of a long-lived node or audit service. The
// warmup duration is the cold cost of the same workload.
func timed(iters int, f func() error) (mean, cold time.Duration, err error) {
	start := time.Now()
	if err := f(); err != nil {
		return 0, 0, err
	}
	cold = time.Since(start)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), cold, nil
}

func writeJSONResults(path, baselinePath string, iters int, o eval.Options) error {
	if iters < 1 {
		iters = 1
	}
	// Load the baseline first: a bad path should fail before, not after,
	// minutes of benchmark runs.
	var prev *BenchFile
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		prev = new(BenchFile)
		if err := json.Unmarshal(raw, prev); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}
	var results []BenchResult

	fig5Metrics := func(f5 eval.Fig5Row) map[string]float64 {
		return map[string]float64{
			"traffic-factor": f5.Factor,
			"baseline-bytes": float64(f5.BaselineBytes),
			"auth-bytes":     float64(f5.AuthBytes),
			"ack-bytes":      float64(f5.AckBytes),
			"messages":       float64(f5.Messages),
		}
	}
	fig6Metrics := func(f6 eval.Fig6Row) map[string]float64 {
		return map[string]float64{
			"MB/min/node": f6.MBPerMin,
			"ckpt-bytes":  float64(f6.CkptBytes),
		}
	}

	// One run per configuration covers the Fig5 and Fig6 series; the run
	// itself is what the Fig5/Fig6 go benchmarks time.
	var serialQuagga5 eval.Fig5Row
	var serialQuagga6 eval.Fig6Row
	var serialQuaggaNs int64
	for _, cfg := range eval.AllConfigs {
		var res *eval.RunResult
		d, cold, err := timed(iters, func() (e error) { res, e = eval.Run(cfg, o); return })
		if err != nil {
			return fmt.Errorf("%s: %w", cfg, err)
		}
		f5 := eval.Figure5(res)
		results = append(results, BenchResult{
			Name: benchName("Fig5", cfg), NsPerOp: d.Nanoseconds(), ColdNsPerOp: cold.Nanoseconds(),
			Metrics: fig5Metrics(f5),
		})
		f6 := eval.Figure6(res)
		results = append(results, BenchResult{
			Name: benchName("Fig6", cfg), NsPerOp: d.Nanoseconds(), ColdNsPerOp: cold.Nanoseconds(),
			Metrics: fig6Metrics(f6),
		})
		if cfg == eval.Quagga {
			serialQuagga5, serialQuagga6, serialQuaggaNs = f5, f6, d.Nanoseconds()
		}
	}

	// Sharded-driver variant: the same Quagga run through the parallel
	// scheduler (4 workers — pinned rather than GOMAXPROCS so the sharded
	// code path is exercised even on single-core runners; on one core the
	// ratio is expected to hover around 1.0). The deterministic series MUST
	// be bit-identical to the serial rows (the scheduler's contract);
	// driver-speedup is serial ns/op divided by sharded ns/op.
	{
		po := o
		po.SimWorkers = 4
		var res *eval.RunResult
		d, cold, err := timed(iters, func() (e error) { res, e = eval.Run(eval.Quagga, po); return })
		if err != nil {
			return fmt.Errorf("Quagga (sharded driver): %w", err)
		}
		f5, f6 := eval.Figure5(res), eval.Figure6(res)
		if f5 != serialQuagga5 || f6 != serialQuagga6 {
			return fmt.Errorf("sharded Quagga run diverged from the serial reference:\nserial: %v / %v\nsharded: %v / %v",
				serialQuagga5, serialQuagga6, f5, f6)
		}
		m5 := fig5Metrics(f5)
		m5["driver-speedup"] = float64(serialQuaggaNs) / float64(d.Nanoseconds())
		results = append(results,
			BenchResult{Name: "BenchmarkFig5QuaggaParallel", NsPerOp: d.Nanoseconds(),
				ColdNsPerOp: cold.Nanoseconds(), Metrics: m5},
			BenchResult{Name: "BenchmarkFig6QuaggaParallel", NsPerOp: d.Nanoseconds(),
				ColdNsPerOp: cold.Nanoseconds(), Metrics: fig6Metrics(f6)})
	}

	// Store-backed variant: the same Quagga run with every log spilled to a
	// disk-backed segment store under a bounded hot tail, so the store's
	// append path is tracked alongside the in-memory series. The metric
	// values must stay bit-identical to the in-memory Fig5/Fig6 rows.
	{
		dir, err := os.MkdirTemp("", "snp-bench-store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		so := o
		so.LogDir = dir
		so.LogHotTail = eval.DefaultHotTail
		var res *eval.RunResult
		d, cold, err := timed(iters, func() (e error) {
			res, e = eval.Run(eval.Quagga, so)
			if e == nil {
				// Close inside the timed region so every iteration (cold
				// and warm) measures the same run + sync + close work; the
				// Figure 5/6 series read only in-memory counters.
				e = res.Net.CloseLogs()
			}
			return
		})
		if err != nil {
			return fmt.Errorf("Quagga (store-backed): %w", err)
		}
		f5, f6 := eval.Figure5(res), eval.Figure6(res)
		results = append(results,
			BenchResult{
				Name: "BenchmarkFig5QuaggaStore", NsPerOp: d.Nanoseconds(), ColdNsPerOp: cold.Nanoseconds(),
				Metrics: map[string]float64{
					"traffic-factor": f5.Factor,
					"baseline-bytes": float64(f5.BaselineBytes),
					"auth-bytes":     float64(f5.AuthBytes),
					"ack-bytes":      float64(f5.AckBytes),
					"messages":       float64(f5.Messages),
				},
			},
			BenchResult{
				Name: "BenchmarkFig6QuaggaStore", NsPerOp: d.Nanoseconds(), ColdNsPerOp: cold.Nanoseconds(),
				Metrics: map[string]float64{
					"MB/min/node": f6.MBPerMin,
					"ckpt-bytes":  float64(f6.CkptBytes),
				},
			})
	}

	// Query-throughput rows: concurrent querier scopes over a store-backed
	// Quagga run, one pass against an empty persistent audit cache and one
	// against the cache that pass populated. The warm pass must be served
	// entirely from the cache (QueryThroughput enforces zero warm misses);
	// warm-speedup is cold mean-per-query over warm mean-per-query — the
	// replica-replay share of an audit, which is what the cache eliminates.
	{
		dir, err := os.MkdirTemp("", "snp-bench-qps-")
		if err != nil {
			return err
		}
		rows, err := eval.QueryThroughput(o, 4, 32, dir)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("qps: %w", err)
		}
		cold, warm := rows[0], rows[1]
		qpsMetrics := func(r eval.QPSRow) map[string]float64 {
			return map[string]float64{
				"qps":          r.QPS,
				"p50-ms":       r.P50.Seconds() * 1000,
				"p99-ms":       r.P99.Seconds() * 1000,
				"workers":      float64(r.Workers),
				"queries":      float64(r.Queries),
				"cache-hits":   float64(r.Hits),
				"cache-misses": float64(r.Misses),
			}
		}
		warmMetrics := qpsMetrics(warm)
		if warm.NsPerQuery() > 0 {
			warmMetrics["warm-speedup"] = float64(cold.NsPerQuery()) / float64(warm.NsPerQuery())
		}
		results = append(results,
			BenchResult{Name: "BenchmarkQPSColdCache", NsPerOp: cold.NsPerQuery(), Metrics: qpsMetrics(cold)},
			BenchResult{Name: "BenchmarkQPSWarmCache", NsPerOp: warm.NsPerQuery(), Metrics: warmMetrics})
	}

	// Store cold-read row: the BenchmarkStoreColdRead pair (mmap'd table
	// decode vs one positioned read per record) as wall-clock numbers, so
	// the read-path ratio is tracked across PRs alongside the figures.
	{
		dir, err := os.MkdirTemp("", "snp-bench-coldread-")
		if err != nil {
			return err
		}
		row, err := eval.ColdReadProbe(dir, 4096)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("cold-read probe: %w", err)
		}
		m := map[string]float64{
			"mmap-ns-per-op":  float64(row.MmapNsPerOp),
			"pread-ns-per-op": float64(row.PreadNsPerOp),
			"entries":         float64(row.Entries),
		}
		if row.MmapNsPerOp > 0 {
			m["pread-over-mmap"] = float64(row.PreadNsPerOp) / float64(row.MmapNsPerOp)
		}
		results = append(results, BenchResult{
			Name: "BenchmarkStoreColdRead", NsPerOp: row.MmapNsPerOp, Metrics: m,
		})
	}

	// Adversary scenario family: one run per behavior with one compromised
	// node, full-deployment audit, evidence scored (§6.1-style detection
	// metrics). The detection guarantee is enforced, not just reported: a
	// false accusation or a missed non-benign behavior fails the bench the
	// way a diverging sharded series does.
	for _, cfgName := range []eval.ConfigName{eval.Quagga, eval.ChordSmall, eval.HadoopSmall} {
		behaviors := adversary.Catalog()
		start := time.Now()
		sum, err := eval.AdversaryScenarios(cfgName, o, 1, behaviors)
		if err != nil {
			return fmt.Errorf("adversary scenarios %s: %w", cfgName, err)
		}
		d := time.Since(start)
		if n := sum.FalseAccusations(); n != 0 {
			return fmt.Errorf("adversary scenarios %s: %d honest nodes falsely accused", cfgName, n)
		}
		if rate := sum.DetectionRate(); rate != 1.0 {
			return fmt.Errorf("adversary scenarios %s: detection rate %.2f, want 1.0", cfgName, rate)
		}
		var failures, red, leads float64
		for _, r := range sum.Rows {
			failures += float64(r.Failures)
			red += float64(r.RedHosts)
			leads += float64(r.Unresponsive + r.Notes)
		}
		results = append(results, BenchResult{
			Name: benchName("Adversary", cfgName), NsPerOp: d.Nanoseconds() / int64(len(behaviors)),
			Metrics: map[string]float64{
				"detection-rate":    sum.DetectionRate(),
				"false-accusations": float64(sum.FalseAccusations()),
				"behaviors":         float64(len(behaviors)),
				"provable-failures": failures,
				"red-hosts":         red,
				"leads":             leads,
			},
		})
	}

	// Multi-process scenario family: one supervised deployment per app with
	// tamper-log on the compromised node and a kill+torn crash plan, audited
	// over the wire after recovery. ns/op is time-to-heal (crash-plan launch
	// to every process healthy again) — the wall-clock cost the supervisor
	// adds over an un-crashed run. The §4.2 guarantee is enforced like the
	// adversary family's: a false accusation or missed tamperer fails the
	// bench. Real wall-clock (process spawns, backoff, audit retries), so no
	// iteration loop: one run per app per invocation.
	{
		dir, err := multiprocDir()
		if err != nil {
			return err
		}
		rows, err := multiproc.Bench(dir, o.Seed)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("multiproc scenarios: %w", err)
		}
		for _, r := range rows {
			if len(r.Violations) != 0 {
				return fmt.Errorf("multiproc %s: §4.2 guarantee violated across process crashes: %v", r.App, r.Violations)
			}
			results = append(results, BenchResult{
				Name:    "BenchmarkMultiproc" + strings.ToUpper(r.App[:1]) + r.App[1:],
				NsPerOp: r.TimeToHeal.Nanoseconds(),
				Metrics: map[string]float64{
					"restart-to-healthy-ms": r.RestartToHealthy.Seconds() * 1000,
					"time-to-heal-ms":       r.TimeToHeal.Seconds() * 1000,
					"detect-ms":             r.DetectLatency.Seconds() * 1000,
					"converged":             b2f(r.Converged),
					"false-accusations":     0, // enforced above; kept so the series lines up with earlier files
					"unresponsive":          float64(r.Unresponsive),
					"restarts":              float64(r.Restarts),
					"torn-bytes":            float64(r.TornBytes),
				},
			})
		}
	}

	// The Fig8 query benchmarks: a fresh run plus the query, like the go
	// benchmarks (which re-run the config inside the timed loop).
	queries := []struct {
		name string
		run  func() (eval.Fig8Row, error)
	}{
		{"BenchmarkFig8QuaggaDisappear", func() (eval.Fig8Row, error) {
			res, err := eval.Run(eval.Quagga, o)
			if err != nil {
				return eval.Fig8Row{}, err
			}
			return eval.QuaggaDisappearQuery(res)
		}},
		{"BenchmarkFig8QuaggaBadGadget", func() (eval.Fig8Row, error) {
			res, err := eval.Run(eval.Quagga, o)
			if err != nil {
				return eval.Fig8Row{}, err
			}
			return eval.QuaggaBadGadgetQuery(res)
		}},
		{"BenchmarkFig8ChordLookupSmall", func() (eval.Fig8Row, error) {
			res, err := eval.Run(eval.ChordSmall, o)
			if err != nil {
				return eval.Fig8Row{}, err
			}
			return eval.ChordLookupQuery(res)
		}},
		{"BenchmarkFig8ChordLookupLarge", func() (eval.Fig8Row, error) {
			res, err := eval.Run(eval.ChordLarge, o)
			if err != nil {
				return eval.Fig8Row{}, err
			}
			return eval.ChordLookupQuery(res)
		}},
		{"BenchmarkFig4HadoopSquirrel", func() (eval.Fig8Row, error) {
			res, err := eval.Run(eval.HadoopSmall, o)
			if err != nil {
				return eval.Fig8Row{}, err
			}
			return eval.HadoopSquirrelQuery(res)
		}},
	}
	for _, q := range queries {
		var row eval.Fig8Row
		d, cold, err := timed(iters, func() (e error) { row, e = q.run(); return })
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		results = append(results, BenchResult{
			Name: q.name, NsPerOp: d.Nanoseconds(), ColdNsPerOp: cold.Nanoseconds(),
			Metrics: map[string]float64{
				"dl-bytes":        float64(row.LogBytes + row.AuthBytes + row.CkptBytes),
				"answer-vertices": float64(row.Answer),
				"turnaround-ms":   row.Turnaround.Seconds() * 1000,
			},
		})
	}

	out := BenchFile{
		GeneratedBy: "snp-bench -json",
		Scale:       float64(o.Scale),
		Results:     results,
	}
	if prev != nil {
		out.Baseline = prev.Results
		out.BaselineSource = baselinePath
		if prev.GeneratedBy != "" {
			out.BaselineSource = baselinePath + " (" + prev.GeneratedBy + ")"
		}
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
