package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a candidate's summary of an end-to-end metric with the
// baseline's. A median that worsened by more than the bound is worse; when
// either side's own spread is wider than the bound the two medians cannot
// be told apart at that resolution, and the row is unresolved rather than
// ok. failed_share has no tolerance: any rise is worse.
func judge(d metricDef, base, cand summary) string {
	if d.Bound == 0 {
		if cand.Median > base.Median {
			return verdictWorse
		}
		return verdictOK
	}
	if base.spread() > d.Bound || cand.spread() > d.Bound {
		return verdictUnresolved
	}
	change := (cand.Median - base.Median) / base.Median
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return verdictWorse
	}
	return verdictOK
}

func loadResults(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per end-to-end (metric, workload) present in
// both files and returns the exit code: 1 when any row is worse.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	cand, err := loadResults(candPath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	return compareResults(w, base, cand)
}

func compareResults(w io.Writer, base, cand *resultFile) int {
	if base.Env.CPU != cand.Env.CPU || base.Env.NumCPU != cand.Env.NumCPU || base.Env.Seed != cand.Env.Seed ||
		base.Env.Smoke != cand.Env.Smoke || base.Env.TmpKind != cand.Env.TmpKind {
		fmt.Fprintf(w, "note: environments differ (%s/%d cpu/seed %d/%s vs %s/%d cpu/seed %d/%s)\n",
			base.Env.CPU, base.Env.NumCPU, base.Env.Seed, base.Env.TmpKind,
			cand.Env.CPU, cand.Env.NumCPU, cand.Env.Seed, cand.Env.TmpKind)
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-26s %-6s %14s %14s %8s %7s  %s\n", "workload", "metric", "unit", "baseline", "candidate", "change", "bound", "verdict")
	for _, wl := range allWorkloads {
		b, okB := base.Results[wl]
		c, okC := cand.Results[wl]
		if !okB || !okC {
			continue
		}
		for _, d := range endToEnd {
			bm, okB := b.Metrics[d.Name]
			cm, okC := c.Metrics[d.Name]
			if !okB || !okC {
				continue
			}
			verdict := judge(d, bm.summary, cm.summary)
			if verdict == verdictWorse {
				code = 1
			}
			change := 0.0
			if bm.Median != 0 {
				change = (cm.Median - bm.Median) / bm.Median * 100
			}
			fmt.Fprintf(w, "%-12s %-26s %-6s %14.6g %14.6g %+7.2f%% %6.1f%%  %s\n",
				wl, d.Name, d.Unit, bm.Median, cm.Median, change, d.Bound*100, verdict)
		}
	}
	return code
}
