package transport

// Liveness and recovery probes for multi-process deployments: a supervisor
// (or test harness) in one process asks a node daemon in another "are you
// up, what is your log head, did you recover, and did your workload
// converge?" over the same framed-TCP audit channel the queriers use. The
// companion notes RPC exports a process's local missing-ack reports so an
// auditor in another process can merge every node's §5.4 leads before
// scoring evidence.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wire"
)

// Health is one node's liveness report: the live log head, the last durably
// synced (sidecar-recorded) position, crash-recovery forensics, the node's
// sticky fault state, and the app-level convergence probe. ProbeHash echoes
// the chain hash at the caller-chosen ProbeSeq, which is how a supervisor
// verifies that a restarted node's chain still passes through the state it
// had synced before the crash.
type Health struct {
	Node       types.NodeID
	HeadSeq    uint64
	HeadHash   []byte
	SyncedSeq  uint64
	SyncedHash []byte
	// ProbeSeq/ProbeHash: the request's probe position and the chain hash
	// there (empty when the position is not retained).
	ProbeSeq  uint64
	ProbeHash []byte
	// TornBytes is how many torn-tail bytes crash recovery truncated when
	// this process opened its store (0 for clean starts).
	TornBytes int64
	// Converged reports the cluster-installed app probe (false when none).
	Converged bool
	// Fault carries the node's sticky fault, if any ("" when healthy).
	Fault string
}

// MarshalWire implements wire.Marshaler.
func (h Health) MarshalWire(w *wire.Writer) {
	w.String(string(h.Node))
	w.Uint(h.HeadSeq)
	w.BytesField(h.HeadHash)
	w.Uint(h.SyncedSeq)
	w.BytesField(h.SyncedHash)
	w.Uint(h.ProbeSeq)
	w.BytesField(h.ProbeHash)
	w.Int(h.TornBytes)
	w.Bool(h.Converged)
	w.String(h.Fault)
}

// UnmarshalWire implements wire.Unmarshaler.
func (h *Health) UnmarshalWire(r *wire.Reader) error {
	h.Node = types.NodeID(r.String())
	h.HeadSeq = r.Uint()
	h.HeadHash = r.BytesField()
	h.SyncedSeq = r.Uint()
	h.SyncedHash = r.BytesField()
	h.ProbeSeq = r.Uint()
	h.ProbeHash = r.BytesField()
	h.TornBytes = r.Int()
	h.Converged = r.Bool()
	h.Fault = r.String()
	return r.Err()
}

// SetMaintainer installs the process-local maintainer whose missing-ack
// notes the notes RPC serves. Daemons call it once at startup; a cluster
// without one answers notes requests with an empty list.
func (c *Cluster) SetMaintainer(m *core.Maintainer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maint = m
}

// SetProbe installs an app-level convergence probe for a local node,
// reported in health responses. The probe runs under the node's lock.
func (c *Cluster) SetProbe(id types.NodeID, probe func(*core.Node) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes[id] = probe
}

// buildHealth assembles the health report for a member under its lock.
func (c *Cluster) buildHealth(m *member, probeSeq uint64) Health {
	c.mu.Lock()
	probe := c.probes[m.node.ID]
	c.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.node
	h := Health{
		Node:      n.ID,
		HeadSeq:   n.Log.Len(),
		HeadHash:  n.Log.HeadHash(),
		TornBytes: n.Log.RecoveredTornBytes(),
	}
	h.SyncedSeq, h.SyncedHash = n.Log.SyncedHead()
	if probeSeq > 0 {
		h.ProbeSeq = probeSeq
		if hash, err := n.Log.Hash(probeSeq); err == nil {
			h.ProbeHash = hash
		}
	}
	if probe != nil {
		h.Converged = probe(n)
	}
	if err := n.Err(); err != nil {
		h.Fault = err.Error()
	}
	return h
}

// Health asks node for a liveness report over the wire. probeSeq, when
// non-zero, requests the chain hash at that position (see Health.ProbeHash);
// pass 0 to skip the probe.
func (f *RemoteFetcher) Health(node types.NodeID, probeSeq uint64) (Health, error) {
	var h Health
	err := f.Call(node, frameHealthReq,
		func(w *wire.Writer) { w.Uint(probeSeq) },
		func(r *wire.Reader) { r.Value(&h) })
	return h, err
}

// Notes fetches node's process-local missing-ack reports (§5.4 leads), so a
// cross-process auditor can merge every daemon's maintainer state before
// scoring evidence.
func (f *RemoteFetcher) Notes(node types.NodeID) ([]core.MissingAckNote, error) {
	var out []core.MissingAckNote
	err := f.Call(node, frameNotesReq, nil,
		func(r *wire.Reader) { out = wire.ReadSlice(r, (*core.MissingAckNote).UnmarshalWire) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SyncNotes merges every node's missing-ack reports (§5.4) into maint and
// returns the first fetch error. In a one-process deployment all nodes share
// a maintainer; across processes each daemon holds only its own reports, and
// an audit that skipped this merge would replay an honest node's never-acked
// send as a protocol violation instead of a lead. Unreachable nodes are
// skipped: a missed note can lose a lead, so every reachable node is asked.
func (f *RemoteFetcher) SyncNotes(maint *core.Maintainer) error {
	var first error
	for _, id := range f.Nodes() {
		notes, err := f.Notes(id)
		if err != nil && first == nil {
			first = fmt.Errorf("transport: notes from %s: %w", id, err)
		}
		for _, n := range notes {
			maint.NotifyMissingAck(n.Reporter, n.ID)
		}
	}
	return first
}

// Drain waits until every outbound link queue is empty (all staged frames
// handed to the link workers' connections or dropped), or until timeout. It
// reports whether the queues drained. A daemon shutting down gracefully
// drains before Close so already-staged envelopes and acks reach peers
// instead of dying in the queues.
func (c *Cluster) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if c.queuesEmpty() {
			// Queues are empty; give the workers one write's worth of time
			// to finish the frame they may hold in flight.
			time.Sleep(5 * time.Millisecond)
			if c.queuesEmpty() {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *Cluster) queuesEmpty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.peers {
		if len(p.q) > 0 {
			return false
		}
	}
	return true
}
