// Command bench is the SNP benchmark: four workloads, each checked for
// correctness, reporting end-to-end metrics (what a node operator or an
// analyst waits for) and, in the traced run, per-layer metrics named after
// this repository's packages. See README.md in this directory.
//
//	go run ./bench                         all four workloads, untraced
//	go run ./bench -trace 1                plus per-layer metrics and trace files
//	go run ./bench -workload query-wire    one workload; the last line is one JSON result
//	go run ./bench -json out.json          every metric as {n,min,q1,median,q3,max}
//	go run ./bench -compare a.json b.json  ok / worse / unresolved per metric
//	go run ./bench -smoke                  smallest sizes, one repeat
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cryptoutil"
)

// suite is the crypto suite every workload runs (the deployment default).
var suite = cryptoutil.Ed25519SHA256

// workloadFuncs maps each workload to its body.
var workloadFuncs = map[string]func(*run) error{
	wlNodeMem:   func(r *run) error { return nodeWorkload(r, false) },
	wlNodeStore: func(r *run) error { return nodeWorkload(r, true) },
	wlQueryWire: queryWire,
	wlEvidence:  evidence,
}

// runWorkload runs one workload in its own scratch directory and always
// returns a finished result: an error aborting the workload is a failure.
func runWorkload(cfg config, name string) *result {
	r := &run{cfg: cfg, res: newResult(name), host: newHost()}
	if cfg.trace {
		r.tr = newTracer()
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, name+"-")
	if err == nil {
		r.dir = dir
		defer os.RemoveAll(dir)
		err = workloadFuncs[name](r)
	}
	if err != nil {
		r.res.fail("%s: %v", name, err)
	}
	for _, s := range r.host.seen {
		r.res.add("host.slowness", s)
	}
	r.res.finish()
	return r.res
}

// resultFile is the -json schema.
type resultFile struct {
	Env     fingerprint               `json:"env"`
	Results map[string]workloadReport `json:"results"`
}

type workloadReport struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricReport `json:"metrics"`
}

type metricReport struct {
	Unit string `json:"unit"`
	summary
}

func report(res *result) workloadReport {
	wr := workloadReport{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricReport{}}
	for name, xs := range res.Samples {
		d, _ := findMetric(name)
		wr.Metrics[name] = metricReport{d.Unit, summarize(xs)}
	}
	return wr
}

// contractLine is the one-line result the driver reads: the median of every
// end-to-end metric (untraced) or of every layer metric (traced). A layer
// the workload gave no work reports 0.
func contractLine(res *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := contractMetrics
	if traced {
		defs = layerMetrics
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{res.median(d.Name), d.Unit}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(buf)
}

func main() {
	workload := flag.String("workload", "", "run only this workload ("+strings.Join(allWorkloads, ", ")+"); the last line printed is then one JSON result")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "time box of each workload's timed phase; at least three repeats are always made")
	trace := flag.Int("trace", 0, "1 = also run the traced pass: per-layer metrics and trace-<workload>.json files")
	smoke := flag.Bool("smoke", false, "smallest sizes and one repeat: checks correctness, measures nothing useful")
	jsonOut := flag.String("json", "", "write every metric's summary and the environment fingerprint to this file")
	compare := flag.Bool("compare", false, "compare two -json files given as arguments, baseline first")
	tmpDir := flag.String("tmp-dir", ".bench_tmp", "directory for store, cache and trace files (kept inside the checkout by default; /dev/shm avoids disk noise)")
	traceDir := flag.String("trace-dir", "", "directory for trace files (default: the tmp dir)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare baseline.json candidate.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, trace: *trace != 0,
		tmpDir: *tmpDir, traceDir: *traceDir, sz: fullSizes()}
	if cfg.smoke {
		cfg.sz, cfg.seconds = smokeSizes(), 0
	}
	if cfg.traceDir == "" {
		cfg.traceDir = cfg.tmpDir
	}
	names := allWorkloads
	if *workload != "" {
		if workloadFuncs[*workload] == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(allWorkloads, ", "))
			os.Exit(2)
		}
		names = []string{*workload}
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	file := resultFile{Env: newFingerprint(cfg), Results: map[string]workloadReport{}}
	env, _ := json.Marshal(file.Env)
	fmt.Printf("env: %s\n", env)
	failed := false
	var last *result
	for _, name := range names {
		res := runWorkload(cfg, name)
		last = res
		file.Results[name] = report(res)
		fmt.Printf("\n== %s: %d attempted, %d failed\n", name, res.Attempted, res.Failed)
		fmt.Print(res.table(endToEnd))
		fmt.Print(res.table(layerMetrics)) // untraced: the host's slowness alone
		for _, p := range res.Problems {
			fmt.Printf("  FAILED: %s\n", p)
		}
		failed = failed || res.Failed > 0
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	if *workload != "" {
		fmt.Println(contractLine(last, cfg.trace))
	}
	if failed {
		os.Exit(1)
	}
}
