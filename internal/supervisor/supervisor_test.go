package supervisor_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/supervisor"
	"repro/internal/types"
)

// TestMain makes this test binary usable as the supervisor's child image:
// when spawned with SNP_NODE_CONFIG set it becomes a node daemon and never
// reaches the test runner.
func TestMain(m *testing.M) {
	supervisor.MaybeChild()
	os.Exit(m.Run())
}

// workDir prefers tmpfs (daemons fsync their log segments on sync, and
// block-device fsync latency in CI containers can be pathological) and keeps
// the deployment directory when the test fails, so the per-daemon logs
// survive for CI to upload as artifacts.
func workDir(t *testing.T) string {
	t.Helper()
	root := os.TempDir()
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		root = "/dev/shm"
	}
	dir, err := os.MkdirTemp(root, "snp-supervisor-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("deployment directory kept for post-mortem: %s", dir)
			return
		}
		os.RemoveAll(dir)
	})
	return dir
}

func TestCrashPlanResolution(t *testing.T) {
	plan := &supervisor.CrashPlan{Seed: 7, Rules: []supervisor.CrashRule{
		{Node: "c", Mode: supervisor.ModeKill, AtAppend: 5, Jitter: 3},
		{Node: "d", Mode: supervisor.ModeTorn, AtAppend: 8},
	}}
	r1, ok := plan.RuleFor("c")
	if !ok {
		t.Fatal("no rule for c")
	}
	if r1.AtAppend < 5 || r1.AtAppend > 8 {
		t.Errorf("jittered trigger %d outside [5, 8]", r1.AtAppend)
	}
	if r1.Jitter != 0 {
		t.Error("resolved rule still carries jitter")
	}
	// Determinism: same plan, same resolution.
	r2, _ := plan.RuleFor("c")
	if r2 != r1 {
		t.Errorf("resolution not deterministic: %+v vs %+v", r1, r2)
	}
	// A different seed moves the trigger for at least one of a few nodes
	// (the jitter draw depends on the seed).
	moved := false
	for seed := int64(1); seed < 20 && !moved; seed++ {
		other := &supervisor.CrashPlan{Seed: seed, Rules: plan.Rules}
		if r, _ := other.RuleFor("c"); r.AtAppend != r1.AtAppend {
			moved = true
		}
	}
	if !moved {
		t.Error("jitter ignores the plan seed")
	}
	if d, ok := plan.RuleFor("d"); !ok || d.AtAppend != 8 {
		t.Errorf("jitterless rule resolved to %+v, %v", d, ok)
	}
	if _, ok := plan.RuleFor("b"); ok {
		t.Error("rule invented for unlisted node")
	}
	var nilPlan *supervisor.CrashPlan
	if _, ok := nilPlan.RuleFor("c"); ok {
		t.Error("nil plan produced a rule")
	}
}

func TestNodeConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.json")
	cfg := supervisor.NodeConfig{
		ID:   "c",
		App:  "mincost",
		Seed: 3,
		Addrs: map[types.NodeID]string{
			"b": "127.0.0.1:1", "c": "127.0.0.1:2", "d": "127.0.0.1:3",
		},
		DataDir:   dir,
		Behaviors: []string{"tamper-log"},
		Crash:     &supervisor.CrashRule{Node: "c", Mode: supervisor.ModeKill, AtAppend: 6},
	}
	if err := supervisor.WriteNodeConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := supervisor.LoadNodeConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != cfg.ID || got.App != cfg.App || got.Seed != cfg.Seed ||
		got.DataDir != cfg.DataDir ||
		got.Addrs["d"] != cfg.Addrs["d"] || got.Behaviors[0] != "tamper-log" ||
		got.Crash == nil || *got.Crash != *cfg.Crash {
		t.Errorf("round trip mangled the config: %+v", got)
	}
	if got.TickMs <= 0 || got.SyncEvery <= 0 {
		t.Errorf("defaults not applied: %+v", got)
	}

	// Validation: a config whose ID has no listen address must not load.
	bad := cfg
	bad.ID = "z"
	_ = supervisor.WriteNodeConfig(path, bad)
	if _, err := supervisor.LoadNodeConfig(path); err == nil {
		t.Error("config with unknown node ID loaded")
	}
}

// TestRestartStormCap points the supervisor at a child image that exits
// immediately, and requires it to give up after the cap's number of
// restarts instead of spinning forever.
func TestRestartStormCap(t *testing.T) {
	if _, err := os.Stat("/bin/false"); err != nil {
		t.Skip("/bin/false not available")
	}
	s, err := supervisor.New(supervisor.Options{
		Dir:         workDir(t),
		Binary:      "/bin/false",
		App:         "mincost",
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop(time.Second)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if failed := s.Failed(); len(failed) == len(s.Deployment().App.Nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storm cap never tripped: failed=%v", s.Failed())
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, id := range s.Deployment().App.Nodes {
		if got := s.Restarts(id); got < supervisor.MaxRestarts {
			t.Errorf("%s: %d restarts before giving up, want the cap's worth", id, got)
		}
		if s.Running(id) {
			t.Errorf("%s still running after the cap tripped", id)
		}
	}
}

// TestSupervisedMinCostSmoke runs the real thing small: three daemon
// processes, convergence over live TCP, one injected kill with supervised
// recovery, and a graceful stop.
func TestSupervisedMinCostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test in -short mode")
	}
	dir := workDir(t)
	s, err := supervisor.New(supervisor.Options{
		Dir:         dir,
		Seed:        1,
		App:         "mincost",
		TickMs:      5,
		SyncEvery:   10,
		BackoffBase: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop(5 * time.Second)

	if err := s.WaitHealthy(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill d and let the supervisor bring it back through log recovery.
	if err := s.Kill("d"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.Restarts("d") == 0 || !s.Running("d") {
		if time.Now().After(deadline) {
			t.Fatalf("d not respawned: restarts=%d running=%v", s.Restarts("d"), s.Running("d"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := s.WaitConverged(30 * time.Second); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	// The heartbeat monitor records restart-to-healthy latency on its own
	// probe cadence; give it a couple of periods to observe the respawn.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if len(s.StartToHealthy("d")) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Error("restart-to-healthy latency never recorded")
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if failed := s.Failed(); len(failed) != 0 {
		t.Errorf("unexpected failed nodes: %v", failed)
	}

	if err := s.Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range s.Deployment().App.Nodes {
		if s.Running(id) {
			t.Errorf("%s still running after Stop", id)
		}
		if _, err := os.Stat(filepath.Join(dir, string(id)+".log")); err != nil {
			t.Errorf("no child log for %s: %v", id, err)
		}
	}
}
