// snp-bench regenerates the paper's evaluation figures as text tables. The
// rows of every figure come from eval.Catalog; timing across commits is `go
// run ./bench`, not this command, and the §4.2 guarantee is judged by the
// conformance tests.
//
// Usage:
//
//	snp-bench                         # all figures at the default scale
//	snp-bench -fig 5                  # one figure
//	snp-bench -scale 0.2              # larger (slower, closer to the paper) runs
//	snp-bench -logdir d -hot-tail 16  # the same tables from store-backed logs
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

// validFigs lists what -fig accepts: the catalog's figures and "all".
func validFigs() []string {
	return append(eval.Figs(), "all")
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("snp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", fmt.Sprintf("figure to regenerate: %s, or all", strings.Join(eval.Figs(), ", ")))
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

	rows := eval.Select(*fig)
	if len(rows) == 0 {
		return fmt.Errorf("unknown -fig %q; valid values: %s", *fig, strings.Join(validFigs(), ", "))
	}
	if *hotTail != 0 && *logDir == "" {
		return errors.New("-hot-tail only takes effect with -logdir")
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

	opts := eval.Options{Scale: eval.Scale(*scale), Seed: *seed, LogDir: *logDir, LogHotTail: *hotTail, SimWorkers: *simWorkers}
	return runFigures(rows, opts, stdout, stderr)
}

// runFigures prints the selected catalog rows under their table headings.
// A row that cannot be measured (a query that finds nothing to explain at a
// small scale, say) is reported and the rest still print.
func runFigures(rows []eval.Row, opts eval.Options, stdout, stderr io.Writer) error {
	table, failed := "", 0
	eval.Measure(rows, opts, func(row eval.Row, r eval.Result, err error) {
		if row.Table != table {
			if table != "" {
				fmt.Fprintln(stdout)
			}
			table = row.Table
			fmt.Fprintf(stdout, "== %s ==\n", table)
		}
		if err != nil {
			fmt.Fprintf(stderr, "  %s: %v\n", row.Name, err)
			failed++
			return
		}
		for _, line := range r.Lines {
			fmt.Fprintln(stdout, " ", line)
		}
	})
	if failed > 0 {
		return fmt.Errorf("%d of %d rows could not be measured", failed, len(rows))
	}
	return nil
}
