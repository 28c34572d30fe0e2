package supervisor

import (
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/seclog"
	"repro/internal/transport"
)

// ChildConfigEnv points a child process at its NodeConfig file. The
// supervisor sets it on every child it spawns.
const ChildConfigEnv = "SNP_NODE_CONFIG"

// MaybeChild turns the current process into a node daemon when
// ChildConfigEnv is set, and never returns in that case. Any binary that
// the supervisor may use as its child image (snp-node, snp-bench, test
// binaries via TestMain) calls this first thing in main, which is how one
// executable serves as both parent and child without a separate build.
func MaybeChild() {
	path := os.Getenv(ChildConfigEnv)
	if path == "" {
		return
	}
	cfg, err := LoadNodeConfig(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snp-node:", err)
		os.Exit(2)
	}
	if err := RunDaemon(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "snp-node:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// die ends the process the way a crash does: SIGKILL, no deferred cleanup,
// no flushes. The empty select covers the handful of instructions between
// sending the signal and the kernel reaping us.
func die() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {}
}

// installCrashRule arms a resolved crash rule on the node's log store.
// Seq positions at or past the trigger fire it (the exact position can be
// consumed by a batch append), whichever append gets there first.
func installCrashRule(n *core.Node, rule *CrashRule) error {
	if rule == nil {
		return nil
	}
	trigger := rule.AtAppend
	armed := false
	var hooks seclog.StoreHooks
	// One append before the trigger, sync: the death then always happens
	// with a synced sidecar on disk (the state recovery must preserve) and
	// an unsynced tail at risk (the state recovery must cope with losing).
	syncBefore := func(seq uint64) {
		if seq+1 == trigger {
			_ = n.Log.Sync()
		}
	}
	switch rule.Mode {
	case ModeKill:
		hooks.AfterAppend = func(seq uint64) {
			syncBefore(seq)
			if seq >= trigger {
				die()
			}
		}
	case ModeTorn:
		hooks.MidFlush = func() {
			if armed {
				die()
			}
		}
		hooks.AfterAppend = func(seq uint64) {
			syncBefore(seq)
			if seq < trigger || armed {
				return
			}
			// Arm the mid-flush kill and force a flush now, so the store
			// dies between the two halves of its split write and leaves
			// this very record torn on disk.
			armed = true
			_ = n.Log.Flush()
		}
	case ModeCompact:
		hooks.MidCompact = func() {
			if armed {
				die()
			}
		}
		hooks.AfterAppend = func(seq uint64) {
			syncBefore(seq)
			if seq < trigger {
				return
			}
			if !armed {
				// From the trigger on, every synced append seals into its
				// own table (seal limit 1 byte) and a second sealed table
				// starts a fold (fold threshold 1): the death then lands on
				// the compactor goroutine, after the folded replacement
				// table is durable but before its fragments are deleted.
				armed = true
				n.Log.SetStoreTuning(1, 1)
			}
			_ = n.Log.Sync()
		}
	default:
		return fmt.Errorf("supervisor: unknown crash mode %q", rule.Mode)
	}
	if !n.Log.SetStoreHooks(hooks) {
		return fmt.Errorf("supervisor: crash rule on %s needs a store-backed log", n.ID)
	}
	return nil
}

// RunDaemon runs one node daemon to completion: derive the deployment,
// start the node through the shared runtime (fresh or through crash
// recovery, behaviors and crash rule armed before it serves), drive it on a
// wall-clock tick loop, and drain gracefully on SIGTERM/SIGINT. It returns
// once the daemon has shut down cleanly; crash rules never return (the
// process dies).
func RunDaemon(cfg NodeConfig) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	app, err := live.AppByName(cfg.App)
	if err != nil {
		return err
	}
	logger := log.New(os.Stdout, string(cfg.ID)+": ", log.Ltime|log.Lmicroseconds)

	cluster := transport.NewClusterWith(transport.Config{Seed: cfg.Seed})
	defer cluster.Close()
	for id, addr := range cfg.Addrs {
		if id != cfg.ID {
			cluster.AddPeer(id, addr)
		}
	}

	dep, err := live.NewDeployment(app)
	if err != nil {
		return err
	}
	dep.Cfg.LogDir = cfg.DataDir
	node, err := dep.Start(cluster, cfg.ID, cfg.Addrs[cfg.ID], cfg.Recover, func(n *core.Node) error {
		for _, name := range cfg.Behaviors {
			p, ok := adversary.ProfileByName(name)
			if !ok {
				return fmt.Errorf("supervisor: unknown behavior %q on %s", name, cfg.ID)
			}
			p.New().Install(n)
		}
		if cfg.Recover {
			logger.Printf("recovered: head=%d torn=%dB", n.Log.Len(), n.Log.RecoveredTornBytes())
		}
		return installCrashRule(n, cfg.Crash)
	})
	if err != nil {
		return err
	}
	logger.Printf("serving on %s", cfg.Addrs[cfg.ID])
	if !cfg.Recover {
		// Seed only once every peer is serving (live.New's rule): an
		// envelope sent before its link is up is lost and only its
		// retransmission arrives, which a behaviour that acts once
		// (equivocate) never touched. A peer that does not answer within
		// the settle window is left to retransmission.
		f := cluster.NewFetcher(cfg.ID)
		deadline := time.Now().Add(dep.SettleWindow())
		for id := range cfg.Addrs {
			if left := time.Until(deadline); id != cfg.ID && left > 0 {
				f.CallTimeout, f.RetryDeadline = left, left
				_, _ = f.Health(id, 0)
			}
		}
		f.Close()
	}
	if err := node.Seed(); err != nil {
		return err
	}
	// Publish a sidecar before the first crash trigger can fire, so the
	// supervisor always has a synced state to hold recovery against.
	if err := cluster.With(cfg.ID, func(n *core.Node) { _ = n.Log.Sync() }); err != nil {
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	ticker := time.NewTicker(time.Duration(cfg.TickMs) * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case s := <-sig:
			logger.Printf("%v: draining", s)
			cluster.Drain(2 * time.Second)
			if err := node.Stop(); err != nil {
				return err
			}
			logger.Print("stopped")
			return nil
		case <-ticker.C:
			if err := node.Tick(cfg.SyncEvery); err != nil {
				return err
			}
		}
	}
}
