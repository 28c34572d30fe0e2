// snp-bench regenerates the paper's evaluation figures as text tables, and
// optionally emits a machine-readable benchmark file so the performance
// trajectory can be tracked across PRs.
//
// Usage:
//
//	snp-bench                  # all figures at the default scale
//	snp-bench -fig 5           # one figure
//	snp-bench -scale 0.2       # larger (slower, closer to the paper) runs
//	snp-bench -json BENCH_results.json -baseline old.json
//	                           # write wall-clock + metrics per benchmark,
//	                           # carrying old.json's results as the baseline
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cryptoutil"
	"repro/internal/eval"
	"repro/internal/livetcp"
	"repro/internal/multiproc"
	"repro/internal/supervisor"
)

func main() {
	// When the multiproc scenarios spawn node daemons they re-exec this very
	// binary as the child image; such a child never reaches the flag parser.
	supervisor.MaybeChild()

	fig := flag.String("fig", "all", "figure to regenerate: 4, 5, 6, 7, 8, 9, batching, or all; 'retention' runs the store-backed long-retention scenario, 'qps' the sustained query-throughput scenario (concurrent audit scopes, cold vs warm audit cache), 'qps-live' its over-the-wire counterpart (remote clients through the query frontend), 'adversary' the Byzantine detection-guarantee scenarios, 'livetcp' the loopback-TCP fault-plan detection-latency scenario, and 'multiproc' the multi-process supervised-crash-recovery scenario on their own (not part of 'all')")
	scale := flag.Float64("scale", 0.05, "workload scale (1.0 = paper-sized: 15 min, 15k updates, 250 nodes)")
	seed := flag.Int64("seed", 1, "workload seed")
	simWorkers := flag.Int("sim-workers", 0, "parallel event shards for the simulation driver (0/1 = serial reference, -1 = GOMAXPROCS); every deterministic series is bit-identical across values")
	logDir := flag.String("logdir", "", "back every node's tamper-evident log with an on-disk segment store under this directory")
	hotTail := flag.Int("hot-tail", 0, "resident decoded entries per store-backed log (0 = all; requires -logdir)")
	jsonOut := flag.String("json", "", "write machine-readable results (name → ns/op + metrics) to this file and exit")
	baseline := flag.String("baseline", "", "previous -json output to embed as the baseline for comparison")
	benchScale := flag.Float64("bench-scale", 0.02, "workload scale used for -json runs (matches go test -bench)")
	iters := flag.Int("iters", 3, "iterations per benchmark for -json (ns/op is the mean, like go test -benchtime=Nx)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after all runs) to this file")
	advFilter := flag.String("adversary", "all", "comma-separated behavior filter for -fig adversary (e.g. 'forge,equivocate'; 'all' runs the whole library)")
	advK := flag.Int("adversary-k", 1, "compromised nodes per adversary scenario")
	qpsWorkers := flag.Int("qps-workers", 4, "concurrent querier scopes for -fig qps")
	qpsQueries := flag.Int("qps-queries", 48, "audit queries per -fig qps pass")
	flag.Parse()

	if *hotTail != 0 && *logDir == "" && *fig != "retention" {
		log.Fatal("-hot-tail only takes effect with -logdir (or -fig retention)")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *jsonOut != "" {
		if err := writeJSONResults(*jsonOut, *baseline, *iters, eval.Options{Scale: eval.Scale(*benchScale), Seed: *seed, SimWorkers: *simWorkers}); err != nil {
			log.Fatal(err)
		}
		return
	}

	o := eval.Options{Scale: eval.Scale(*scale), Seed: *seed, LogDir: *logDir, LogHotTail: *hotTail, SimWorkers: *simWorkers}
	run := func(name string) bool { return *fig == "all" || *fig == name }

	if *fig == "adversary" {
		// The detection-guarantee scenario family (§2, §4, §6.1): each
		// configuration re-runs once per behavior with k compromised nodes,
		// then the whole deployment is audited and the evidence is scored.
		behaviors, err := eval.SelectBehaviors(*advFilter)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== Adversary scenarios: detection guarantees with k=%d compromised nodes ==\n", *advK)
		violated := false
		for _, cfgName := range []eval.ConfigName{eval.Quagga, eval.ChordSmall, eval.HadoopSmall} {
			sum, err := eval.AdversaryScenarios(cfgName, o, *advK, behaviors)
			if err != nil {
				log.Fatalf("%s: %v", cfgName, err)
			}
			for _, r := range sum.Rows {
				fmt.Println(" ", r)
			}
			fmt.Printf("  %s: detection-rate=%.2f false-accusations=%d\n",
				cfgName, sum.DetectionRate(), sum.FalseAccusations())
			if sum.FalseAccusations() != 0 {
				fmt.Fprintf(os.Stderr, "  ACCURACY VIOLATION: %s implicated honest nodes\n", cfgName)
				violated = true
			}
			if sum.DetectionRate() != 1.0 {
				fmt.Fprintf(os.Stderr, "  DETECTION VIOLATION: %s missed a non-benign behavior\n", cfgName)
				violated = true
			}
		}
		if violated {
			// log.Fatal, like every other failure in this command (defers are
			// skipped either way on the fatal paths).
			log.Fatal("adversary scenarios violated the detection guarantee")
		}
		return
	}

	if *fig == "livetcp" {
		// The live-TCP detection scenario: tamper-log armed per app, run
		// over loopback TCP under the fault-plan matrix, audited over the
		// wire. Reports wall-clock convergence and detection latency — the
		// deployment-path counterpart of -fig adversary.
		fmt.Println("== Live-TCP scenarios: detection latency under fault plans ==")
		rows, err := livetcp.Bench(*seed)
		if err != nil {
			log.Fatal(err)
		}
		violated := false
		for _, r := range rows {
			fmt.Println(" ", r)
			for _, v := range r.Violations {
				fmt.Fprintf(os.Stderr, "  GUARANTEE VIOLATION: %s under %s: %s\n", r.App, r.Plan, v)
				violated = true
			}
		}
		if violated {
			log.Fatal("live-TCP scenarios violated the detection guarantee")
		}
		return
	}

	if *fig == "multiproc" {
		// The multi-process scenario: one supervised daemon process per node,
		// tamper-log armed on the compromised node, a seeded crash plan
		// SIGKILLing two honest nodes (one mid-append, leaving a torn tail),
		// and a full over-the-wire audit after supervised recovery. Reports
		// restart-to-healthy and detection latency; §4.2 is enforced, not just
		// reported.
		dir, err := multiprocDir()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== Multi-process scenarios: supervised crash recovery + detection ==")
		rows, err := multiproc.Bench(dir, *seed)
		violated := false
		for _, r := range rows {
			fmt.Println(" ", r)
			for _, v := range r.Violations {
				fmt.Fprintf(os.Stderr, "  GUARANTEE VIOLATION: %s under %s: %s\n", r.App, r.Plan, v)
				violated = true
			}
		}
		// Remove before any Fatal: log.Fatal skips deferred cleanup.
		os.RemoveAll(dir)
		if err != nil {
			log.Fatal(err)
		}
		if violated {
			log.Fatal("multi-process scenarios violated the detection guarantee")
		}
		return
	}

	if *fig == "qps" {
		// The sustained query-throughput scenario: a store-backed Quagga run,
		// then concurrent querier scopes auditing nodes round-robin — once
		// against an empty persistent audit cache and once against the cache
		// that pass populated. The warm row's speedup is replica-replay time
		// the cache eliminated.
		dir, err := os.MkdirTemp("", "snp-qps-")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== Query throughput: concurrent audit scopes, cold vs warm audit cache ==")
		rows, err := eval.QueryThroughput(o, *qpsWorkers, *qpsQueries, dir)
		// Remove before any Fatal: log.Fatal skips deferred cleanup.
		os.RemoveAll(dir)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
		return
	}

	if *fig == "qps-live" {
		// The over-the-wire variant: the same cold/warm contrast, but the
		// deployment runs over loopback TCP and every query travels through
		// the query frontend — admission queue, session pool, framed RPCs —
		// so the rows measure what a remote analyst actually experiences.
		dir, err := os.MkdirTemp("", "snp-qps-live-")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== Query throughput over the wire: remote clients through the query frontend ==")
		rows, stats, err := livetcp.QPSLive(*seed, *qpsWorkers, *qpsQueries, dir)
		// Remove before any Fatal: log.Fatal skips deferred cleanup.
		os.RemoveAll(dir)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
		fmt.Println("  front:", stats)
		if stats.Shed != 0 {
			log.Fatalf("frontend shed %d queries with a session per client", stats.Shed)
		}
		return
	}

	if *fig == "retention" {
		// The §5.6 long-retention scenario: a store-backed run (Figure 6
		// accounting over the spilled logs, checked bit-identical against an
		// in-memory baseline) plus crash recovery and a full re-audit of one
		// node's on-disk store. Run with -scale 1.0 for the paper-sized
		// experiment.
		dir := *logDir
		autoDir := dir == ""
		if autoDir {
			var err error
			dir, err = os.MkdirTemp("", "snp-retention-")
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println("== Long retention: disk-backed segment store + crash recovery ==")
		rep, err := eval.LongRetention(eval.Quagga, o, dir)
		if autoDir {
			// Remove before any Fatal: log.Fatal skips deferred cleanup, and
			// a paper-scale store directory is worth gigabytes.
			os.RemoveAll(dir)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" ", rep)
		fmt.Println("  fig6 (spilled):", rep.Fig6)
		fmt.Println("  fig6 (memory): ", rep.BaselineFig6)
		return
	}

	if run("5") || run("6") || run("7") {
		costs, err := eval.MeasureCryptoCosts(cryptoutil.Ed25519SHA256)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== Figures 5 (traffic), 6 (log growth), 7 (CPU) — five configurations ==")
		for _, cfgName := range eval.AllConfigs {
			res, err := eval.Run(cfgName, o)
			if err != nil {
				log.Fatalf("%s: %v", cfgName, err)
			}
			if run("5") {
				fmt.Println("  fig5:", eval.Figure5(res))
			}
			if run("6") {
				fmt.Println("  fig6:", eval.Figure6(res))
			}
			if run("7") {
				fmt.Println("  fig7:", eval.Figure7(res, costs))
			}
			// Release store-backed logs (no-op for in-memory runs): with
			// -logdir, later runs reuse the same per-node file paths.
			_ = res.Net.CloseLogs()
		}
		fmt.Println()
	}

	if run("8") || run("4") {
		fmt.Println("== Figure 8: query turnaround and downloads (and the Figure 4 query) ==")
		quagga, err := eval.Run(eval.Quagga, o)
		if err != nil {
			log.Fatal(err)
		}
		if row, err := eval.QuaggaDisappearQuery(quagga); err == nil {
			fmt.Println(" ", row)
		} else {
			fmt.Fprintln(os.Stderr, "  Quagga-Disappear:", err)
		}
		if row, err := eval.QuaggaBadGadgetQuery(quagga); err == nil {
			fmt.Println(" ", row)
		} else {
			fmt.Fprintln(os.Stderr, "  Quagga-BadGadget:", err)
		}
		_ = quagga.Net.CloseLogs()
		for _, cfgName := range []eval.ConfigName{eval.ChordSmall, eval.ChordLarge} {
			res, runErr := eval.Run(cfgName, o)
			if runErr != nil {
				log.Fatal(runErr)
			}
			if row, err := eval.ChordLookupQuery(res); err == nil {
				fmt.Println(" ", row)
			} else {
				fmt.Fprintln(os.Stderr, "  Chord-Lookup:", err)
			}
			_ = res.Net.CloseLogs()
		}
		hadoop, err := eval.Run(eval.HadoopSmall, o)
		if err != nil {
			log.Fatal(err)
		}
		if row, err := eval.HadoopSquirrelQuery(hadoop); err == nil {
			fmt.Println(" ", row)
		} else {
			fmt.Fprintln(os.Stderr, "  Hadoop-Squirrel:", err)
		}
		_ = hadoop.Net.CloseLogs()
		fmt.Println()
	}

	if run("9") {
		fmt.Println("== Figure 9: Chord scalability ==")
		sizes := []int{10, 50, 100, 250}
		if *scale >= 0.5 {
			sizes = append(sizes, 500)
		}
		rows, err := eval.Figure9(sizes, o)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
		fmt.Println()
	}

	if run("batching") {
		fmt.Println("== §5.6 batching ablation (Quagga) ==")
		without, with, err := eval.BatchingAblation(o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  without:", without)
		fmt.Println("  with:   ", with)
		if with.Signs > 0 {
			fmt.Printf("  signature reduction: %.1fx; envelope reduction: %.0f%%\n",
				float64(without.Signs)/float64(with.Signs),
				100*(1-float64(with.Envelopes)/float64(without.Envelopes)))
		}
	}
}

// multiprocDir roots a multi-process deployment, preferring tmpfs: every
// daemon fsyncs its log segments on sync, and block-device fsync latency
// would dominate the recovery timings being measured.
func multiprocDir() (string, error) {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "snp-multiproc-*"); err == nil {
			return dir, nil
		}
	}
	return os.MkdirTemp("", "snp-multiproc-*")
}
