// Package supervisor is the multi-process deployment layer: it launches one
// snp-node daemon per node as a separate OS process, monitors liveness
// through the transport's health RPC, and restarts crashed children with
// jittered backoff — the piece that turns the single-process live.Harness
// into a deployment where the failure unit is a real process — and audits
// them from the parent over the wire. A
// seeded CrashPlan injects process deaths at deterministic log positions
// (including mid-flush, so recovery exercises the torn-tail path for real),
// which is how the §4.2 conformance suite re-proves the detection guarantee
// across OS-process crashes.
package supervisor

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/types"
)

// Crash modes: how a CrashRule ends the process.
const (
	// ModeKill SIGKILLs the process immediately after the trigger append is
	// staged — buffered log records die with the process.
	ModeKill = "kill"
	// ModeTorn forces a flush at the trigger append and SIGKILLs between
	// the two halves of the store's split write, leaving a genuinely torn
	// record on disk for recovery to truncate.
	ModeTorn = "torn"
	// ModeCompact forces the store into seal-per-sync at the trigger append
	// and SIGKILLs on the compactor goroutine once the resulting fold's
	// replacement table is durable but before the tables it replaced are
	// deleted — the widest window a compaction crash has, with both old and
	// new tables on disk for recovery's walk from the tail to choose between.
	ModeCompact = "compact"
)

// CrashRule schedules one process death: when node's log head reaches the
// trigger position (AtAppend plus a seeded jitter draw), the daemon kills
// its own process in the given mode.
type CrashRule struct {
	Node     types.NodeID `json:"node"`
	Mode     string       `json:"mode"`
	AtAppend uint64       `json:"at_append"`
	// Jitter widens the trigger to AtAppend + [0, Jitter], drawn
	// deterministically from the plan seed and the node ID.
	Jitter uint64 `json:"jitter,omitempty"`
}

// CrashPlan is a seeded set of process-death rules. Like transport.FaultPlan,
// two plans with the same Seed and Rules resolve to identical triggers, so
// crash runs are reproducible per seed. A nil *CrashPlan kills nothing.
type CrashPlan struct {
	Seed  int64       `json:"seed"`
	Rules []CrashRule `json:"rules"`
}

// RuleFor resolves the plan for one node: the node's rule with its trigger
// jitter applied (returned in AtAppend), or ok=false when the plan leaves
// the node alone. The first matching rule wins.
func (p *CrashPlan) RuleFor(node types.NodeID) (CrashRule, bool) {
	if p == nil {
		return CrashRule{}, false
	}
	for _, r := range p.Rules {
		if r.Node != node {
			continue
		}
		if r.Jitter > 0 {
			h := fnv.New64a()
			h.Write([]byte(node))
			r.AtAppend += (uint64(p.Seed) ^ h.Sum64()) % (r.Jitter + 1)
			r.Jitter = 0
		}
		return r, true
	}
	return CrashRule{}, false
}

// NodeConfig is everything one daemon process needs to join a deployment.
// The supervisor writes one per child as JSON and points the child at it
// via the SNP_NODE_CONFIG environment variable.
type NodeConfig struct {
	// ID is this daemon's node identity, one of the nodes of App — the
	// workload's name in the live registry (live.AppByName), whose key
	// seeds fix every node's key.
	ID  types.NodeID `json:"id"`
	App string       `json:"app"`
	// Seed drives the transport's jitter streams.
	Seed int64 `json:"seed"`
	// Addrs maps every node (this one included) to its fixed listen
	// address. Fixed ports are what let a restarted process rejoin: peers
	// keep dialing the same address through the transport's backoff.
	Addrs map[types.NodeID]string `json:"addrs"`
	// DataDir roots the node's on-disk segment store.
	DataDir string `json:"data_dir"`
	// Recover makes the daemon reopen an existing store through the crash
	// recovery path instead of starting fresh (set by the supervisor on
	// every respawn).
	Recover bool `json:"recover,omitempty"`
	// Behaviors are adversary profile names to arm on this node.
	Behaviors []string `json:"behaviors,omitempty"`
	// Crash, when non-nil, is this node's resolved crash rule. The
	// supervisor clears it on respawn so a recovered process does not
	// immediately re-die.
	Crash *CrashRule `json:"crash,omitempty"`
	// TickMs is the daemon tick period (default 10ms); SyncEvery how many
	// ticks between durable log syncs (default 20).
	TickMs    int `json:"tick_ms,omitempty"`
	SyncEvery int `json:"sync_every,omitempty"`
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.TickMs <= 0 {
		c.TickMs = 10
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 20
	}
	return c
}

func (c NodeConfig) validate() error {
	if c.ID == "" {
		return fmt.Errorf("supervisor: config has no node ID")
	}
	if c.Addrs[c.ID] == "" {
		return fmt.Errorf("supervisor: config for %s has no listen address", c.ID)
	}
	if c.DataDir == "" {
		return fmt.Errorf("supervisor: config for %s has no data dir", c.ID)
	}
	return nil
}

// WriteNodeConfig atomically writes cfg as JSON (tmp + rename, so a child
// never reads a half-written config across a supervisor crash).
func WriteNodeConfig(path string, cfg NodeConfig) error {
	raw, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadNodeConfig reads and validates a child config.
func LoadNodeConfig(path string) (NodeConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return NodeConfig{}, err
	}
	var cfg NodeConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return NodeConfig{}, fmt.Errorf("supervisor: parsing %s: %w", filepath.Base(path), err)
	}
	cfg = cfg.withDefaults()
	return cfg, cfg.validate()
}
