package queryfront

import (
	"sync"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

// ledgerCap bounds the chain hashes the ledger holds: one hash per audited
// log entry, so 16 MiB is half a million entries at 32 bytes each.
const ledgerCap = 16 << 20

// ledgerEntry is what one clean single-target audit leaves behind: the chain
// the node presented, verified up to the head it signed, and the merged notes
// the audit was scored against; and, per peer, how far the hits since have
// read that peer's authenticators about the node and found them on the chain
// (none for a fresh entry). Entries are immutable; sessions that hold one past
// a lookup read it without the ledger's lock, and a hit that reads further
// replaces it.
type ledgerEntry struct {
	head    *core.AuditedHead
	notes   []core.MissingAckNote
	cursors map[types.NodeID]transport.AuthCursor
}

// ledger is the frontend's record of audited heads, one entry per node, under
// a byte cap with least-recently-used eviction. An entry can only ever say
// "still clean": it is recorded from a verdict without findings and consulted
// only to learn that nothing the verdict depended on has changed.
type ledger struct {
	hits, misses atomic.Uint64

	mu        sync.Mutex
	cap       int
	entries   map[types.NodeID]ledgerSlot
	clock     uint64 // lookups and records so far; a slot's used is its last one
	bytes     int
	evictions uint64
}

type ledgerSlot struct {
	entry *ledgerEntry
	used  uint64
}

func newLedger() *ledger {
	return &ledger{cap: ledgerCap, entries: make(map[types.NodeID]ledgerSlot)}
}

// lookup returns node's entry, or nil.
func (l *ledger) lookup(node types.NodeID) *ledgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.entries[node]
	if !ok {
		return nil
	}
	l.clock++
	l.entries[node] = ledgerSlot{entry: slot.entry, used: l.clock}
	return slot.entry
}

// record files what a single-target audit of node found, if that is nothing:
// head is the chain it replayed (nil when it replayed none) and v its verdict.
// Any finding — a failure, a red host, an unresponsive node — keeps the audit
// out of the ledger, so that no later answer rests on anything but a clean
// one. Entries used least recently make room; a chain larger than the cap is
// not kept.
func (l *ledger) record(node types.NodeID, head *core.AuditedHead, v *adversary.Verdict) {
	if head == nil || len(v.Failures) != 0 || len(v.RedHosts) != 0 || len(v.Unresponsive) != 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.remove(node)
	if head.Bytes() > l.cap {
		return
	}
	for l.bytes+head.Bytes() > l.cap {
		var oldest types.NodeID
		least := l.clock + 1
		for id, slot := range l.entries {
			if slot.used < least {
				oldest, least = id, slot.used
			}
		}
		l.remove(oldest)
		l.evictions++
	}
	l.clock++
	l.entries[node] = ledgerSlot{entry: &ledgerEntry{head: head, notes: v.Notes}, used: l.clock}
	l.bytes += head.Bytes()
}

// drop forgets node's entry if it is still e: a session that could not
// confirm e must not take away the entry another session recorded since.
func (l *ledger) drop(node types.NodeID, e *ledgerEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entries[node].entry == e {
		l.remove(node)
	}
}

// advance puts next, e with cursors read further, in node's slot if e is
// still there, under the same rule as drop.
func (l *ledger) advance(node types.NodeID, e, next *ledgerEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if slot := l.entries[node]; slot.entry == e {
		l.entries[node] = ledgerSlot{entry: next, used: slot.used}
	}
}

// remove deletes node's slot, if any. The caller holds l.mu.
func (l *ledger) remove(node types.NodeID) {
	if slot, ok := l.entries[node]; ok {
		l.bytes -= slot.entry.head.Bytes()
		delete(l.entries, node)
	}
}

// fill adds the ledger's counters to a stats snapshot.
func (l *ledger) fill(st *FrontStats) {
	st.LedgerHits, st.LedgerMisses = l.hits.Load(), l.misses.Load()
	l.mu.Lock()
	defer l.mu.Unlock()
	st.LedgerEvictions, st.LedgerBytes = l.evictions, uint64(l.bytes)
}
