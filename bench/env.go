package main

import (
	"bufio"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/cryptoutil"
)

// fingerprint records where a set of numbers came from, so two result files
// can be told apart as "another machine" or "another commit" from the files
// alone.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Trace      bool    `json:"trace"`
	NodeScale  float64 `json:"node_scale"`
	WireScale  float64 `json:"wire_scale"`
	EvidScale  float64 `json:"evidence_scale"`
	Clients    int     `json:"clients"`
	TmpDir     string  `json:"tmp_dir"`
	TmpKind    string  `json:"tmp_kind"`
	FlushRule  string  `json:"flush_policy"`
}

func newFingerprint(cfg config) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds,
		Smoke: cfg.smoke, Trace: cfg.trace,
		NodeScale: float64(cfg.sz.nodeScale), WireScale: float64(cfg.sz.wireScale),
		EvidScale: float64(cfg.sz.evidScale), Clients: cfg.sz.clients,
		TmpDir: cfg.tmpDir, TmpKind: "disk",
		FlushRule: "Log.Sync at end of run, then Close",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if abs, err := filepath.Abs(cfg.tmpDir); err == nil && strings.HasPrefix(abs, "/dev/shm") {
		fp.TmpKind = "tmpfs"
	}
	return fp
}

// coldState applies the cold-state rule before a timed repeat: forget every
// signature the previous repeat (or the simulated nodes at run time)
// verified, and collect its garbage so it is not charged to this repeat.
func coldState() {
	cryptoutil.DefaultVerifyCache.Reset()
	runtime.GC()
}

// timebox repeats fn until it has run at least minRepeats times and for at
// least seconds in total, and never more than maxRepeats times.
func timebox(minRepeats, maxRepeats int, seconds float64, fn func(i int)) {
	start := time.Now()
	for i := 0; i < maxRepeats; i++ {
		if i >= minRepeats && time.Since(start).Seconds() >= seconds {
			return
		}
		fn(i)
	}
}

// heapSampler tracks the peak of the live-heap gauge over one timed repeat. It
// reads runtime/metrics, which does not stop the world. The gauge is the
// heap the last GC cycle found live, which a change moves and GC timing does
// not; heap/objects:bytes also counts garbage not yet swept, and its peak
// varied by 13% between identical runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapGauge = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapGauge}}
		tick := time.NewTicker(20 * time.Millisecond) // GC cycles are ~200 ms apart; miss none
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters is a snapshot of the allocation and GC-CPU counters; the
// difference of two brackets a phase.
type runtimeCounters struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// since reports MiB allocated and the GC's share of CPU since c.
func (c runtimeCounters) since() (allocMiB, gcShare float64) {
	now := readRuntimeCounters()
	allocMiB = float64(now.allocBytes-c.allocBytes) / (1 << 20)
	if cpu := now.totalCPU - c.totalCPU; cpu > 0 {
		gcShare = (now.gcCPU - c.gcCPU) / cpu
	}
	return allocMiB, gcShare
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
