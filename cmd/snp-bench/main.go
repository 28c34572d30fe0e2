// snp-bench regenerates the paper's evaluation figures as text tables and
// runs the scenario families (adversary, live TCP, multi-process, query
// throughput, retention). The rows of every figure come from eval.Catalog;
// timing across commits is `go run ./bench`, not this command.
//
// Usage:
//
//	snp-bench                  # all figures at the default scale
//	snp-bench -fig 5           # one figure
//	snp-bench -scale 0.2       # larger (slower, closer to the paper) runs
//	snp-bench -fig adversary   # one scenario family
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/eval"
	"repro/internal/livetcp"
	"repro/internal/multiproc"
	"repro/internal/supervisor"
)

func main() {
	// When the multiproc scenarios spawn node daemons they re-exec this very
	// binary as the child image; such a child never reaches the flag parser.
	supervisor.MaybeChild()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// config is the parsed command line as the -fig modes see it.
type config struct {
	opts       eval.Options
	advFilter  string
	advK       int
	qpsWorkers int
	qpsQueries int
	out, err   io.Writer
}

// scenarios are the -fig values that are not figure tables. Each runs on
// its own and none is part of "all".
var scenarios = []struct {
	name, help string
	run        func(config) error
}{
	{"retention", "the store-backed long-retention scenario", runRetention},
	{"qps", "sustained query throughput (concurrent audit scopes, cold vs warm audit cache)", runQPS},
	{"qps-live", "the same over the wire (remote clients through the query frontend)", runQPSLive},
	{"adversary", "the Byzantine detection-guarantee scenarios", runAdversary},
	{"livetcp", "loopback-TCP detection latency under the fault-plan matrix", runLiveTCP},
	{"multiproc", "multi-process supervised crash recovery", runMultiproc},
}

// validFigs lists what -fig accepts: the catalog's figures, "all", and the
// scenarios.
func validFigs() []string {
	valid := append(eval.Figs(), "all")
	for _, s := range scenarios {
		valid = append(valid, s.name)
	}
	return valid
}

func run(args []string, stdout, stderr io.Writer) error {
	var figHelp strings.Builder
	fmt.Fprintf(&figHelp, "figure to regenerate: %s, or all; or a scenario run on its own (not part of 'all'):", strings.Join(eval.Figs(), ", "))
	for _, s := range scenarios {
		fmt.Fprintf(&figHelp, " '%s' %s;", s.name, s.help)
	}

	fs := flag.NewFlagSet("snp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", strings.TrimSuffix(figHelp.String(), ";"))
	scale := fs.Float64("scale", 0.05, "workload scale (1.0 = paper-sized: 15 min, 15k updates, 250 nodes)")
	seed := fs.Int64("seed", 1, "workload seed")
	simWorkers := fs.Int("sim-workers", 0, "parallel event shards for the simulation driver (0/1 = serial reference, -1 = GOMAXPROCS); every deterministic series is bit-identical across values")
	logDir := fs.String("logdir", "", "back every node's tamper-evident log with an on-disk segment store under this directory")
	hotTail := fs.Int("hot-tail", 0, "resident decoded entries per store-backed log (0 = all; requires -logdir)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile (after all runs) to this file")
	advFilter := fs.String("adversary", "all", "comma-separated behavior filter for -fig adversary (e.g. 'forge,equivocate'; 'all' runs the whole library)")
	advK := fs.Int("adversary-k", 1, "compromised nodes per adversary scenario")
	qpsWorkers := fs.Int("qps-workers", 4, "concurrent querier scopes for -fig qps")
	qpsQueries := fs.Int("qps-queries", 48, "audit queries per -fig qps pass")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var mode func(config) error
	if rows := eval.Select(*fig); len(rows) > 0 {
		mode = func(c config) error { return runFigures(rows, c) }
	}
	for _, s := range scenarios {
		if s.name == *fig {
			mode = s.run
		}
	}
	if mode == nil {
		return fmt.Errorf("unknown -fig %q; valid values: %s", *fig, strings.Join(validFigs(), ", "))
	}
	if *hotTail != 0 && *logDir == "" && *fig != "retention" {
		return errors.New("-hot-tail only takes effect with -logdir (or -fig retention)")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Print(err)
			}
		}()
	}

	return mode(config{
		opts:      eval.Options{Scale: eval.Scale(*scale), Seed: *seed, LogDir: *logDir, LogHotTail: *hotTail, SimWorkers: *simWorkers},
		advFilter: *advFilter, advK: *advK,
		qpsWorkers: *qpsWorkers, qpsQueries: *qpsQueries,
		out: stdout, err: stderr,
	})
}

// runFigures prints the selected catalog rows under their table headings.
// A row that cannot be measured (a query that finds nothing to explain at a
// small scale, say) is reported and the rest still print.
func runFigures(rows []eval.Row, c config) error {
	table, failed := "", 0
	eval.Measure(rows, c.opts, func(row eval.Row, r eval.Result, err error) {
		if row.Table != table {
			if table != "" {
				fmt.Fprintln(c.out)
			}
			table = row.Table
			fmt.Fprintf(c.out, "== %s ==\n", table)
		}
		if err != nil {
			fmt.Fprintf(c.err, "  %s: %v\n", row.Name, err)
			failed++
			return
		}
		for _, line := range r.Lines {
			fmt.Fprintln(c.out, " ", line)
		}
	})
	if failed > 0 {
		return fmt.Errorf("%d of %d rows could not be measured", failed, len(rows))
	}
	return nil
}

// runAdversary is the detection-guarantee scenario family (§2, §4, §6.1):
// each configuration re-runs once per behavior with k compromised nodes,
// then the whole deployment is audited and the evidence is scored.
func runAdversary(c config) error {
	behaviors, err := eval.SelectBehaviors(c.advFilter)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "== Adversary scenarios: detection guarantees with k=%d compromised nodes ==\n", c.advK)
	violated := false
	for _, cfgName := range eval.AdversaryConfigs {
		sum, err := eval.AdversaryScenarios(cfgName, c.opts, c.advK, behaviors)
		if err != nil {
			return fmt.Errorf("%s: %w", cfgName, err)
		}
		for _, r := range sum.Rows {
			fmt.Fprintln(c.out, " ", r)
		}
		fmt.Fprintf(c.out, "  %s: detection-rate=%.2f false-accusations=%d\n",
			cfgName, sum.DetectionRate(), sum.FalseAccusations())
		if sum.FalseAccusations() != 0 {
			fmt.Fprintf(c.err, "  ACCURACY VIOLATION: %s implicated honest nodes\n", cfgName)
			violated = true
		}
		if sum.DetectionRate() != 1.0 {
			fmt.Fprintf(c.err, "  DETECTION VIOLATION: %s missed a non-benign behavior\n", cfgName)
			violated = true
		}
	}
	if violated {
		return errors.New("adversary scenarios violated the detection guarantee")
	}
	return nil
}

// printRow prints one live-scenario row and its breaches of the §4.2
// guarantee, and reports whether it had any.
func printRow(c config, row fmt.Stringer, app, plan string, violations []string) bool {
	fmt.Fprintln(c.out, " ", row)
	for _, v := range violations {
		fmt.Fprintf(c.err, "  GUARANTEE VIOLATION: %s under %s: %s\n", app, plan, v)
	}
	return len(violations) > 0
}

// runLiveTCP is the live-TCP detection scenario: tamper-log armed per app,
// run over loopback TCP under the fault-plan matrix, audited over the wire.
// Reports wall-clock convergence and detection latency — the
// deployment-path counterpart of -fig adversary.
func runLiveTCP(c config) error {
	fmt.Fprintln(c.out, "== Live-TCP scenarios: detection latency under fault plans ==")
	rows, err := livetcp.Bench(c.opts.Seed)
	if err != nil {
		return err
	}
	violated := false
	for _, r := range rows {
		violated = printRow(c, r, r.App, r.Plan, r.Violations) || violated
	}
	if violated {
		return errors.New("live-TCP scenarios violated the detection guarantee")
	}
	return nil
}

// runMultiproc is the multi-process scenario: one supervised daemon process
// per node, tamper-log armed on the compromised node, a seeded crash plan
// SIGKILLing two honest nodes (one mid-append, leaving a torn tail), and a
// full over-the-wire audit after supervised recovery. Reports
// restart-to-healthy and detection latency; §4.2 is enforced, not just
// reported.
func runMultiproc(c config) error {
	dir, err := multiprocDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintln(c.out, "== Multi-process scenarios: supervised crash recovery + detection ==")
	rows, err := multiproc.Bench(dir, c.opts.Seed)
	violated := false
	for _, r := range rows {
		violated = printRow(c, r, r.App, r.Plan, r.Violations) || violated
	}
	if err != nil {
		return err
	}
	if violated {
		return errors.New("multi-process scenarios violated the detection guarantee")
	}
	return nil
}

// runQPS is the sustained query-throughput scenario: a store-backed Quagga
// run, then concurrent querier scopes auditing nodes round-robin — once
// against an empty persistent audit cache and once against the cache that
// pass populated. The warm row's speedup is replica-replay time the cache
// eliminated.
func runQPS(c config) error {
	dir, err := os.MkdirTemp("", "snp-qps-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintln(c.out, "== Query throughput: concurrent audit scopes, cold vs warm audit cache ==")
	rows, err := eval.QueryThroughput(c.opts, c.qpsWorkers, c.qpsQueries, dir)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintln(c.out, " ", r)
	}
	return nil
}

// runQPSLive is the over-the-wire variant: the same cold/warm contrast, but
// the deployment runs over loopback TCP and every query travels through the
// query frontend — admission queue, session pool, framed RPCs — so the rows
// measure what a remote analyst actually experiences.
func runQPSLive(c config) error {
	dir, err := os.MkdirTemp("", "snp-qps-live-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintln(c.out, "== Query throughput over the wire: remote clients through the query frontend ==")
	rows, stats, err := livetcp.QPSLive(c.opts.Seed, c.qpsWorkers, c.qpsQueries, dir)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintln(c.out, " ", r)
	}
	fmt.Fprintln(c.out, "  front:", stats)
	if stats.Shed != 0 {
		return fmt.Errorf("frontend shed %d queries with a session per client", stats.Shed)
	}
	return nil
}

// runRetention is the §5.6 long-retention scenario: a store-backed run
// (Figure 6 accounting over the spilled logs, checked bit-identical against
// an in-memory baseline) plus crash recovery and a full re-audit of one
// node's on-disk store. Run with -scale 1.0 for the paper-sized experiment.
func runRetention(c config) error {
	dir := c.opts.LogDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "snp-retention-"); err != nil {
			return err
		}
		// A paper-scale store directory is worth gigabytes.
		defer os.RemoveAll(dir)
	}
	fmt.Fprintln(c.out, "== Long retention: disk-backed segment store + crash recovery ==")
	rep, err := eval.LongRetention(eval.Quagga, c.opts, dir)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, " ", rep)
	fmt.Fprintln(c.out, "  fig6 (spilled):", rep.Fig6)
	fmt.Fprintln(c.out, "  fig6 (memory): ", rep.BaselineFig6)
	return nil
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
