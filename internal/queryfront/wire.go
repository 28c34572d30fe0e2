// Query-frontend wire protocol: the frame kinds and the request/response
// bodies, one codec per struct (core.Failure and core.MissingAckNote bring
// their own); framing, request ids and the whole-request check are
// transport.Server's and transport.Caller's. Kinds 0x20–0x2F are reserved for
// this protocol; the node RPC range stops at 0x19. Every decoder treats its
// input as hostile: counts are bounded against the remaining input
// (wire.ReadSlice, wire.Reader.Count), and malformed frames surface as
// checked errors, never panics.
package queryfront

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wire"
)

// Query frame kinds (responses are request+1, like the node RPCs).
const (
	FrameExplainReq  byte = 0x20
	FrameExplainResp byte = 0x21
	FrameAuditReq    byte = 0x22
	FrameAuditResp   byte = 0x23
	FrameStatsReq    byte = 0x24
	FrameStatsResp   byte = 0x25
)

// maxTargets bounds how many audit targets one request may name; anything
// larger than a plausible deployment is rejected before any work.
const maxTargets = 1 << 16

// ExplainRequest is one provenance macroquery: explain tuple on node
// under the given query options (§5.1's modes, direction, and scope).
type ExplainRequest struct {
	Node      types.NodeID
	Tuple     types.Tuple
	Mode      core.QueryMode
	Direction core.Direction
	At        types.Time
	Scope     int
	StartHint types.Time
}

// MarshalWire implements wire.Marshaler.
func (q ExplainRequest) MarshalWire(w *wire.Writer) {
	w.String(string(q.Node))
	q.Tuple.MarshalWire(w)
	w.Byte(byte(q.Mode))
	w.Byte(byte(q.Direction))
	w.Int(int64(q.At))
	w.Uint(uint64(q.Scope))
	w.Byte(0) // reserved: once switched the §5.5 consistency check off
	w.Int(int64(q.StartHint))
}

// UnmarshalWire implements wire.Unmarshaler.
func (q *ExplainRequest) UnmarshalWire(r *wire.Reader) error {
	q.Node = types.NodeID(r.String())
	if err := q.Tuple.UnmarshalWire(r); err != nil {
		return err
	}
	q.Mode = core.QueryMode(r.Byte())
	q.Direction = core.Direction(r.Byte())
	q.At = types.Time(r.Int())
	q.Scope = int(r.Uint())
	reserved := r.Byte()
	q.StartHint = types.Time(r.Int())
	if err := r.Err(); err != nil {
		return err
	}
	if q.Mode > core.ModeDisappear {
		return fmt.Errorf("queryfront: unknown query mode %d", q.Mode)
	}
	if q.Direction > core.Effects {
		return fmt.Errorf("queryfront: unknown direction %d", q.Direction)
	}
	if q.Scope < 0 || q.Scope > maxTargets {
		return fmt.Errorf("queryfront: implausible scope %d", q.Scope)
	}
	if reserved != 0 {
		return fmt.Errorf("queryfront: reserved byte is %#x, not 0", reserved)
	}
	return nil
}

// Opts converts the wire form back into core query options.
func (q ExplainRequest) Opts() core.QueryOpts {
	return core.QueryOpts{
		Mode: q.Mode, Direction: q.Direction, At: q.At, Scope: q.Scope, StartHint: q.StartHint,
	}
}

// AuditRequest asks the frontend to audit the named targets (all
// registered nodes when empty) and return the verdict tiers.
type AuditRequest struct {
	Targets []types.NodeID
}

// MarshalWire implements wire.Marshaler.
func (q AuditRequest) MarshalWire(w *wire.Writer) { wire.WriteSlice(w, q.Targets, writeNode) }

// UnmarshalWire implements wire.Unmarshaler.
func (q *AuditRequest) UnmarshalWire(r *wire.Reader) error {
	n := r.Count() // adversary-controlled; bounded against input size
	if err := r.Err(); err != nil {
		return err
	}
	if n > maxTargets {
		return fmt.Errorf("queryfront: %d audit targets exceeds the bound", n)
	}
	q.Targets = make([]types.NodeID, n)
	for i := range q.Targets {
		q.Targets[i] = types.NodeID(r.String())
	}
	return r.Err()
}

func writeNode(id types.NodeID, w *wire.Writer) { w.String(string(id)) }

func readNode(id *types.NodeID, r *wire.Reader) error {
	*id = types.NodeID(r.String())
	return r.Err()
}

// Lead is one unreachable node with the error that made it a yellow,
// unattributable lead (§4.2's "unavailable" tier — never an accusation).
type Lead struct {
	Node types.NodeID
	Err  string
}

// MarshalWire implements wire.Marshaler.
func (l Lead) MarshalWire(w *wire.Writer) {
	w.String(string(l.Node))
	w.String(l.Err)
}

// UnmarshalWire implements wire.Unmarshaler.
func (l *Lead) UnmarshalWire(r *wire.Reader) error {
	l.Node = types.NodeID(r.String())
	l.Err = r.String()
	return r.Err()
}

// AuditedSpan is the part of one node's log an Explain audited to give its
// answer: positions From..To, the last of which carries the node's local
// time Through. The root's log is audited through its head; a log the walk
// crossed onto, through the root's causal horizon (core.Querier.CausalHorizon).
type AuditedSpan struct {
	Node     types.NodeID
	From, To uint64
	Through  types.Time
}

// MarshalWire implements wire.Marshaler.
func (a AuditedSpan) MarshalWire(w *wire.Writer) {
	w.String(string(a.Node))
	w.Uint(a.From)
	w.Uint(a.To)
	w.Int(int64(a.Through))
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *AuditedSpan) UnmarshalWire(r *wire.Reader) error {
	a.Node = types.NodeID(r.String())
	a.From = r.Uint()
	a.To = r.Uint()
	a.Through = types.Time(r.Int())
	return r.Err()
}

// ExplainResult is the answer to an ExplainRequest: the rendered
// explanation tree, the provably faulty nodes it implicates, the
// unreachable-leads set the query accumulated, and how much of which logs
// stands behind it.
type ExplainResult struct {
	// Rendered is the formatted explanation tree (Explanation.Format).
	Rendered string
	// Vertices counts the answer's explanation vertices.
	Vertices int
	// Faulty are nodes hosting red vertices in the answer — provable
	// evidence, guaranteed to implicate only compromised nodes.
	Faulty []types.NodeID
	// Unreachable are the §4.2 unattributable leads, sorted by node.
	Unreachable []Lead
	// Elapsed is the server-side service time, admission queue included.
	Elapsed time.Duration
	// Audited are the log prefixes the answer vouches for, sorted by node: it
	// says nothing of what a node logged after its span.
	Audited []AuditedSpan
}

// MarshalWire implements wire.Marshaler.
func (q ExplainResult) MarshalWire(w *wire.Writer) {
	w.String(q.Rendered)
	w.Uint(uint64(q.Vertices))
	wire.WriteSlice(w, q.Faulty, writeNode)
	wire.WriteSlice(w, q.Unreachable, Lead.MarshalWire)
	w.Int(int64(q.Elapsed))
	wire.WriteSlice(w, q.Audited, AuditedSpan.MarshalWire)
}

// UnmarshalWire implements wire.Unmarshaler.
func (q *ExplainResult) UnmarshalWire(r *wire.Reader) error {
	q.Rendered = r.String()
	q.Vertices = int(r.Uint())
	q.Faulty = wire.ReadSlice(r, readNode)
	q.Unreachable = wire.ReadSlice(r, (*Lead).UnmarshalWire)
	q.Elapsed = time.Duration(r.Int())
	if r.Remaining() == 0 {
		return r.Err() // a frontend from before the audited spans
	}
	q.Audited = wire.ReadSlice(r, (*AuditedSpan).UnmarshalWire)
	return r.Err()
}

// AuditResult is the answer to an AuditRequest, separated into the
// paper's evidence tiers.
type AuditResult struct {
	// Failures and RedHosts are the provable tier (§5.5).
	Failures []core.Failure
	RedHosts []types.NodeID
	// Unreachable are the unattributable leads, sorted by node.
	Unreachable []Lead
	// Notes are the merged §5.4 missing-ack reports.
	Notes []core.MissingAckNote
	// Elapsed is the server-side service time, admission queue included.
	Elapsed time.Duration
}

// auditResultOf puts a sweep's verdict in wire form.
func auditResultOf(v *adversary.Verdict) *AuditResult {
	return &AuditResult{Failures: v.Failures, RedHosts: v.RedHosts, Unreachable: leads(v.Unresponsive), Notes: v.Notes}
}

// Verdict converts the wire form back into the verdict the frontend's
// sweep produced, so a remote analyst scores it — evidence tiers, the §4.2
// check — exactly as an in-process one would.
func (q *AuditResult) Verdict() *adversary.Verdict {
	v := &adversary.Verdict{Failures: q.Failures, RedHosts: q.RedHosts, Notes: q.Notes,
		Unresponsive: make(map[types.NodeID]error, len(q.Unreachable))}
	for _, l := range q.Unreachable {
		v.Unresponsive[l.Node] = errors.New(l.Err)
	}
	return v
}

// StrongNodes returns the nodes implicated by provable evidence, sorted.
func (q *AuditResult) StrongNodes() []types.NodeID { return q.Verdict().StrongNodes() }

// Format renders the verdict in the paper's evidence tiers: provable
// evidence first, then the unreachable leads (sorted on the wire already).
func (q *AuditResult) Format() string {
	var b strings.Builder
	if strong := q.StrongNodes(); len(strong) > 0 {
		fmt.Fprintf(&b, "PROVABLY FAULTY: %v\n", strong)
		for _, f := range q.Failures {
			fmt.Fprintf(&b, "  %s@%d: %s\n", f.Node, f.Seq, f.Reason)
		}
		for _, id := range q.RedHosts {
			fmt.Fprintf(&b, "  %s: red provenance vertex\n", id)
		}
	} else {
		b.WriteString("no provable evidence of misbehavior\n")
	}
	if len(q.Unreachable) > 0 {
		b.WriteString("unreachable (unattributable leads, not evidence):\n")
		for _, l := range q.Unreachable {
			fmt.Fprintf(&b, "  %s: %s\n", l.Node, l.Err)
		}
	}
	if len(q.Notes) > 0 {
		fmt.Fprintf(&b, "missing-ack notes in scope: %d\n", len(q.Notes))
	}
	return b.String()
}

// MarshalWire implements wire.Marshaler.
func (q AuditResult) MarshalWire(w *wire.Writer) {
	wire.WriteSlice(w, q.Failures, core.Failure.MarshalWire)
	wire.WriteSlice(w, q.RedHosts, writeNode)
	wire.WriteSlice(w, q.Unreachable, Lead.MarshalWire)
	wire.WriteSlice(w, q.Notes, core.MissingAckNote.MarshalWire)
	w.Int(int64(q.Elapsed))
}

// UnmarshalWire implements wire.Unmarshaler.
func (q *AuditResult) UnmarshalWire(r *wire.Reader) error {
	q.Failures = wire.ReadSlice(r, (*core.Failure).UnmarshalWire)
	q.RedHosts = wire.ReadSlice(r, readNode)
	q.Unreachable = wire.ReadSlice(r, (*Lead).UnmarshalWire)
	q.Notes = wire.ReadSlice(r, (*core.MissingAckNote).UnmarshalWire)
	q.Elapsed = time.Duration(r.Int())
	return r.Err()
}

// KindStats is the latency digest for one query kind ("explain" or
// "audit"): how many were served and the nearest-rank p50/p99 over the
// most recent samples.
type KindStats struct {
	Kind  string
	Count uint64
	P50   time.Duration
	P99   time.Duration
}

// MarshalWire implements wire.Marshaler.
func (k KindStats) MarshalWire(w *wire.Writer) {
	w.String(k.Kind)
	w.Uint(k.Count)
	w.Int(int64(k.P50))
	w.Int(int64(k.P99))
}

// UnmarshalWire implements wire.Unmarshaler.
func (k *KindStats) UnmarshalWire(r *wire.Reader) error {
	k.Kind = r.String()
	k.Count = r.Uint()
	k.P50 = time.Duration(r.Int())
	k.P99 = time.Duration(r.Int())
	return r.Err()
}

// FrontStats is the frontend's counter snapshot: pool shape, admission
// outcomes (mirroring the transport's drop-and-count semantics), audit
// cache and ledger effectiveness, and per-kind latency digests.
type FrontStats struct {
	Sessions int
	QueueCap int
	// Served counts queries answered (including ones whose audit found
	// evidence — that is an answer, not a failure). Shed counts queries
	// rejected at admission because the queue was full; Expired counts
	// queries whose deadline passed while queued (dropped unexecuted);
	// Failed counts queries that ran but errored.
	Served  uint64
	Shed    uint64
	Expired uint64
	Failed  uint64
	// CacheHits/CacheMisses are the shared audit cache's counter deltas
	// since the frontend started (0/0 when it runs without a cache).
	CacheHits   uint64
	CacheMisses uint64
	// Kinds holds per-query-kind latency digests, sorted by kind.
	Kinds []KindStats
	// NotesSyncErrors counts queries whose §5.4 notes merge was partial (a
	// node did not answer); they run best-effort and stay out of the ledger.
	NotesSyncErrors uint64
	// LedgerHits counts single-target audits answered from the ledger of
	// audited heads plus the live checks; LedgerMisses the ones that took
	// the full audit. LedgerEvictions counts entries dropped to keep
	// LedgerBytes, the chain hashes held, under the cap.
	LedgerHits      uint64
	LedgerMisses    uint64
	LedgerEvictions uint64
	LedgerBytes     uint64
}

// HitRatio returns the audit-cache hit ratio in [0, 1] (0 when the cache
// was never consulted).
func (s FrontStats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

func (s FrontStats) String() string {
	out := fmt.Sprintf("sessions=%d queue=%d served=%d shed=%d expired=%d failed=%d cache=%.0f%% (%d/%d)",
		s.Sessions, s.QueueCap, s.Served, s.Shed, s.Expired, s.Failed,
		100*s.HitRatio(), s.CacheHits, s.CacheHits+s.CacheMisses)
	out += fmt.Sprintf(" ledger=%d/%d evicted=%d held=%dB notes-sync-errors=%d",
		s.LedgerHits, s.LedgerHits+s.LedgerMisses, s.LedgerEvictions, s.LedgerBytes, s.NotesSyncErrors)
	for _, k := range s.Kinds {
		out += fmt.Sprintf(" %s{n=%d p50=%v p99=%v}", k.Kind, k.Count,
			k.P50.Round(10*time.Microsecond), k.P99.Round(10*time.Microsecond))
	}
	return out
}

// MarshalWire implements wire.Marshaler.
func (s FrontStats) MarshalWire(w *wire.Writer) {
	w.Uint(uint64(s.Sessions))
	w.Uint(uint64(s.QueueCap))
	w.Uint(s.Served)
	w.Uint(s.Shed)
	w.Uint(s.Expired)
	w.Uint(s.Failed)
	w.Uint(s.CacheHits)
	w.Uint(s.CacheMisses)
	wire.WriteSlice(w, s.Kinds, KindStats.MarshalWire)
	w.Uint(s.NotesSyncErrors)
	w.Uint(s.LedgerHits)
	w.Uint(s.LedgerMisses)
	w.Uint(s.LedgerEvictions)
	w.Uint(s.LedgerBytes)
}

// UnmarshalWire implements wire.Unmarshaler.
func (s *FrontStats) UnmarshalWire(r *wire.Reader) error {
	s.Sessions = int(r.Uint())
	s.QueueCap = int(r.Uint())
	s.Served = r.Uint()
	s.Shed = r.Uint()
	s.Expired = r.Uint()
	s.Failed = r.Uint()
	s.CacheHits = r.Uint()
	s.CacheMisses = r.Uint()
	s.Kinds = wire.ReadSlice(r, (*KindStats).UnmarshalWire)
	if r.Remaining() == 0 {
		return r.Err() // a frontend from before the ledger
	}
	s.NotesSyncErrors = r.Uint()
	s.LedgerHits = r.Uint()
	s.LedgerMisses = r.Uint()
	s.LedgerEvictions = r.Uint()
	s.LedgerBytes = r.Uint()
	return r.Err()
}
