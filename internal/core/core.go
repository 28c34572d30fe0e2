// Package core implements the SNooPy node (§5): the graph recorder (the
// tamper-evident log plus the commitment protocol of §5.4), the microquery
// module (§5.5: retrieve, verify, deterministic replay, consistency check),
// and the query processor (§5.1: macroqueries with scope k over the
// provenance graph). It is the paper's primary contribution assembled from
// the substrate packages.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
)

// Config carries the SNooPy deployment parameters of §5.2 and §5.6.
type Config struct {
	// Tprop is the maximum benign message propagation delay (assumption 4).
	Tprop types.Time
	// DeltaClock is the maximum clock skew between nodes (assumption 5).
	DeltaClock types.Time
	// Tbatch is the message-batching window (§5.6); zero disables batching
	// and every message travels in its own envelope.
	Tbatch types.Time
	// CheckpointEvery is the interval between checkpoints; zero disables
	// checkpointing (replay then always starts from the beginning).
	CheckpointEvery types.Time
	// Suite selects the crypto suite; nil means cryptoutil.Ed25519SHA256.
	Suite cryptoutil.Suite
	// LogDir, when non-empty, backs each node's tamper-evident log with an
	// on-disk segment store rooted at this directory (one data file plus a
	// sidecar per node), so a log's length is not bounded by memory.
	LogDir string
	// LogHotTail bounds the number of decoded log entries kept resident
	// when the log is store-backed; older entries are decoded from disk on
	// demand. Zero (or negative) keeps every entry hot; DefaultConfig's 128
	// lets paper-scale runs spill most of their history and keeps the
	// online path out of the store.
	LogHotTail int
	// LogRecover makes NewNode reopen an existing segment store in LogDir
	// (crash recovery: replay, chain re-verification, torn-tail repair)
	// instead of creating a fresh one. Without it, NewNode truncates any
	// previous store for the node — the right semantics for a fresh run,
	// destructive for a restart.
	LogRecover bool
	// AuditCache, when non-nil, lets auditors built from this config skip
	// the replica-machine replay of segments they have audited before (the
	// persistent incremental-audit cache; see auditcache.go for what a hit
	// is and is not allowed to trust).
	AuditCache *AuditCache
}

func (c Config) suite() cryptoutil.Suite {
	if c.Suite == nil {
		return cryptoutil.Ed25519SHA256
	}
	return c.Suite
}

// DefaultConfig mirrors the paper's evaluation setup: second-scale Tprop
// and skew, no batching, checkpoints every minute.
func DefaultConfig() Config {
	return Config{
		Tprop:           2 * types.Second,
		DeltaClock:      2 * types.Second,
		Tbatch:          0,
		CheckpointEvery: types.Minute,
		Suite:           cryptoutil.Ed25519SHA256,
		LogHotTail:      128,
	}
}

// Clock supplies a node's local time (assumption 5: per-node clocks with
// bounded skew).
type Clock interface {
	Now() types.Time
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() types.Time

// Now implements Clock.
func (f ClockFunc) Now() types.Time { return f() }

// Directory maps node identities to their public keys; it stands in for the
// paper's offline CA (assumption 2).
type Directory struct {
	mu   sync.RWMutex
	keys map[types.NodeID]cryptoutil.PublicKey
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{keys: make(map[types.NodeID]cryptoutil.PublicKey)}
}

// Register binds a node to a public key.
func (d *Directory) Register(id types.NodeID, key cryptoutil.PublicKey) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keys[id] = key
}

// Key returns the public key of a node.
func (d *Directory) Key(id types.NodeID) (cryptoutil.PublicKey, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	k, ok := d.keys[id]
	if !ok {
		return nil, fmt.Errorf("core: no certificate for node %s", id)
	}
	return k, nil
}

// Maintainer collects missing-acknowledgment notifications (§5.4): a
// correct node that does not receive an ack within 2·Tprop immediately
// reports it, which prevents the missing ack from being misattributed
// during later audits.
type Maintainer struct {
	mu    sync.Mutex
	notes map[noteKey]bool
}

type noteKey struct {
	reporter types.NodeID
	id       types.MessageID
}

// NewMaintainer returns an empty maintainer registry.
func NewMaintainer() *Maintainer { return &Maintainer{notes: make(map[noteKey]bool)} }

// NotifyMissingAck records that reporter never received an ack for id.
func (m *Maintainer) NotifyMissingAck(reporter types.NodeID, id types.MessageID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.notes[noteKey{reporter, id}] = true
}

// WasNotified reports whether a missing ack was reported for (reporter, id).
func (m *Maintainer) WasNotified(reporter types.NodeID, id types.MessageID) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.notes[noteKey{reporter, id}]
}

// Count returns the number of recorded notifications.
func (m *Maintainer) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.notes)
}

// MissingAckNote is one recorded §5.4 report: Reporter never received an
// acknowledgment for ID. A note implicates the exchange, not a single node
// (the receiver may have withheld the ack, or the channel may have failed);
// it is a lead for the maintainer, not provable evidence.
type MissingAckNote struct {
	Reporter types.NodeID
	ID       types.MessageID
}

// Notes returns every recorded notification, sorted by (Reporter, ID).
func (m *Maintainer) Notes() []MissingAckNote {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MissingAckNote, 0, len(m.notes))
	for k := range m.notes {
		out = append(out, MissingAckNote{Reporter: k.reporter, ID: k.id})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Reporter != b.Reporter {
			return a.Reporter < b.Reporter
		}
		if a.ID.Src != b.ID.Src {
			return a.ID.Src < b.ID.Src
		}
		if a.ID.Dst != b.ID.Dst {
			return a.ID.Dst < b.ID.Dst
		}
		return a.ID.Seq < b.ID.Seq
	})
	return out
}

// ExtantsOf extracts checkpointable state from a machine, converting to
// seclog items. Machines that do not implement types.StateDumper yield an
// empty item list (their snapshot alone must suffice for replay).
func ExtantsOf(m types.Machine) []seclog.ExtantItem {
	d, ok := m.(types.StateDumper)
	if !ok {
		return nil
	}
	ext := d.DumpExtants()
	items := make([]seclog.ExtantItem, len(ext))
	for i, e := range ext {
		it := seclog.ExtantItem{Tuple: e.Tuple, Appeared: e.Appeared, Local: e.Local}
		for _, b := range e.Believed {
			it.Believed = append(it.Believed, seclog.BelievedRecord{Origin: b.Origin, Since: b.Since})
		}
		items[i] = it
	}
	return items
}
