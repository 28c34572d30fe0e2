// snp-bench regenerates the paper's evaluation figures as text tables, plus
// the §5.6 long-retention scenario. The rows of every figure come from
// eval.Catalog; timing across commits is `go run ./bench`, not this
// command, and the §4.2 guarantee is judged by the conformance tests.
//
// Usage:
//
//	snp-bench                  # all figures at the default scale
//	snp-bench -fig 5           # one figure
//	snp-bench -scale 0.2       # larger (slower, closer to the paper) runs
//	snp-bench -fig retention   # the store-backed retention scenario
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
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// config is the parsed command line as the -fig modes see it.
type config struct {
	opts     eval.Options
	out, err io.Writer
}

// validFigs lists what -fig accepts: the catalog's figures, "all", and the
// retention scenario, which runs on its own and is not part of "all".
func validFigs() []string {
	return append(eval.Figs(), "all", "retention")
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("snp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", fmt.Sprintf("figure to regenerate: %s, or all; or 'retention', the store-backed long-retention scenario (runs on its own, not part of 'all')", strings.Join(eval.Figs(), ", ")))
	scale := fs.Float64("scale", 0.05, "workload scale (1.0 = paper-sized: 15 min, 15k updates, 250 nodes)")
	seed := fs.Int64("seed", 1, "workload seed")
	simWorkers := fs.Int("sim-workers", 0, "parallel event shards for the simulation driver (0/1 = serial reference, -1 = GOMAXPROCS); every deterministic series is bit-identical across values")
	logDir := fs.String("logdir", "", "back every node's tamper-evident log with an on-disk segment store under this directory")
	hotTail := fs.Int("hot-tail", 0, "resident decoded entries per store-backed log (0 = all; requires -logdir)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile (after all runs) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mode := runRetention
	if rows := eval.Select(*fig); len(rows) > 0 {
		mode = func(c config) error { return runFigures(rows, c) }
	} else if *fig != "retention" {
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
		opts: eval.Options{Scale: eval.Scale(*scale), Seed: *seed, LogDir: *logDir, LogHotTail: *hotTail, SimWorkers: *simWorkers},
		out:  stdout, err: stderr,
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
