// Package seclog implements SNooPy's tamper-evident log (§5.4): an
// append-only sequence of entries linked by a hash chain, from which a node
// can issue authenticators — signed commitments to its entire history up to
// an entry. Any two messages signed by the same node either lie on one
// chain or prove equivocation. A log is entries 1..head, chained from a nil
// h_0, and keeps its whole history; the segment store (store.go) moves it to
// disk, never away.
//
// Entry granularity is the *envelope*: a batch of 1..k messages sent to one
// destination under a single signature and acknowledgment (the Tbatch
// optimization of §5.6; an unbatched system simply sends envelopes of one).
// Replay expands each envelope entry into per-message events for the
// graph-construction algorithm.
package seclog

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/types"
	"repro/internal/wire"
)

// EntryType enumerates log entry types (§5.4 lists snd, rcv, ack, ins, del;
// checkpoints are the §5.6 optimization).
type EntryType uint8

// Entry types.
const (
	ESnd EntryType = iota
	ERcv
	EAck
	EIns
	EDel
	ECkpt
)

func (t EntryType) String() string {
	switch t {
	case ESnd:
		return "snd"
	case ERcv:
		return "rcv"
	case EAck:
		return "ack"
	case EIns:
		return "ins"
	case EDel:
		return "del"
	case ECkpt:
		return "ckpt"
	default:
		return fmt.Sprintf("entry(%d)", t)
	}
}

// Entry is one log record. Field usage depends on Type:
//
//	ESnd:  Msgs (all to one destination)
//	ERcv:  Msgs plus the sender's envelope authenticator material
//	       (PeerPrevHash, PeerTime, PeerSig, PeerSeq)
//	EAck:  AckIDs plus the receiver's authenticator material
//	EIns/EDel: Tuple, and for maybe firings MaybeRule/MaybeBody/Replaces
//	ECkpt: Ckpt
type Entry struct {
	T    types.Time
	Type EntryType

	Msgs []types.Message

	PeerPrevHash []byte
	PeerTime     types.Time
	PeerSig      []byte
	PeerSeq      uint64

	AckIDs []types.MessageID
	// EnvSig, on EAck entries, preserves the acknowledged envelope's own
	// signature so that replay can reconstruct the receiver's rcv entry
	// verbatim and re-verify the ack signature (§5.5's authenticator
	// conditions).
	EnvSig []byte

	Tuple     types.Tuple
	MaybeRule string
	MaybeBody []types.Tuple
	Replaces  []types.Tuple

	Ckpt *Checkpoint
}

// marshalContent encodes the type-specific content c_k that is hashed into
// the chain.
func (e *Entry) marshalContent(w *wire.Writer) {
	switch e.Type {
	case ESnd:
		w.Uint(uint64(len(e.Msgs)))
		for i := range e.Msgs {
			e.Msgs[i].MarshalWire(w)
		}
	case ERcv:
		w.Uint(uint64(len(e.Msgs)))
		for i := range e.Msgs {
			e.Msgs[i].MarshalWire(w)
		}
		w.BytesField(e.PeerPrevHash)
		w.Int(int64(e.PeerTime))
		w.BytesField(e.PeerSig)
		w.Uint(e.PeerSeq)
	case EAck:
		w.Uint(uint64(len(e.AckIDs)))
		for _, id := range e.AckIDs {
			w.String(string(id.Src))
			w.String(string(id.Dst))
			w.Uint(id.Seq)
		}
		w.BytesField(e.PeerPrevHash)
		w.Int(int64(e.PeerTime))
		w.BytesField(e.PeerSig)
		w.Uint(e.PeerSeq)
		w.BytesField(e.EnvSig)
	case EIns, EDel:
		e.Tuple.MarshalWire(w)
		w.String(e.MaybeRule)
		w.Uint(uint64(len(e.MaybeBody)))
		for i := range e.MaybeBody {
			e.MaybeBody[i].MarshalWire(w)
		}
		w.Uint(uint64(len(e.Replaces)))
		for i := range e.Replaces {
			e.Replaces[i].MarshalWire(w)
		}
	case ECkpt:
		// The chain commits only to the checkpoint digests; the bulky
		// payload is verified against them (enables partial retrieval).
		e.Ckpt.digestMarshal(w)
	}
}

// MarshalWire implements wire.Marshaler: the symmetric transmission form
// that UnmarshalWire inverts. Checkpoint entries carry their full payload
// (MachineState and Items), so a SegmentData serialized across a process
// boundary can be re-verified and replayed without a payload side channel.
// The hash chain still commits only to the checkpoint digests
// (marshalContent), and WireSize still meters the digest form, the size the
// paper's figures account (§5.6: a querier downloads digests and fetches
// payload only as needed), although here the payload travels whole.
func (e *Entry) MarshalWire(w *wire.Writer) {
	w.Int(int64(e.T))
	w.Byte(byte(e.Type))
	if e.Type == ECkpt {
		e.Ckpt.MarshalWire(w)
		return
	}
	e.marshalContent(w)
}

// UnmarshalWire implements wire.Unmarshaler (the inverse of MarshalWire).
func (e *Entry) UnmarshalWire(r *wire.Reader) error {
	e.T = types.Time(r.Int())
	e.Type = EntryType(r.Byte())
	switch e.Type {
	case ESnd:
		n := r.Count()
		if err := r.Err(); err != nil {
			return err
		}
		e.Msgs = make([]types.Message, n)
		for i := range e.Msgs {
			if err := e.Msgs[i].UnmarshalWire(r); err != nil {
				return err
			}
		}
	case ERcv:
		n := r.Count()
		if err := r.Err(); err != nil {
			return err
		}
		e.Msgs = make([]types.Message, n)
		for i := range e.Msgs {
			if err := e.Msgs[i].UnmarshalWire(r); err != nil {
				return err
			}
		}
		e.PeerPrevHash = r.BytesField()
		e.PeerTime = types.Time(r.Int())
		e.PeerSig = r.BytesField()
		e.PeerSeq = r.Uint()
	case EAck:
		n := r.Count()
		if err := r.Err(); err != nil {
			return err
		}
		e.AckIDs = make([]types.MessageID, n)
		for i := range e.AckIDs {
			e.AckIDs[i].Src = types.NodeID(r.String())
			e.AckIDs[i].Dst = types.NodeID(r.String())
			e.AckIDs[i].Seq = r.Uint()
		}
		e.PeerPrevHash = r.BytesField()
		e.PeerTime = types.Time(r.Int())
		e.PeerSig = r.BytesField()
		e.PeerSeq = r.Uint()
		e.EnvSig = r.BytesField()
	case EIns, EDel:
		if err := e.Tuple.UnmarshalWire(r); err != nil {
			return err
		}
		e.MaybeRule = r.String()
		n := r.Count()
		if err := r.Err(); err != nil {
			return err
		}
		e.MaybeBody = make([]types.Tuple, n)
		for i := range e.MaybeBody {
			if err := e.MaybeBody[i].UnmarshalWire(r); err != nil {
				return err
			}
		}
		n = r.Count()
		if err := r.Err(); err != nil {
			return err
		}
		e.Replaces = make([]types.Tuple, n)
		for i := range e.Replaces {
			if err := e.Replaces[i].UnmarshalWire(r); err != nil {
				return err
			}
		}
	case ECkpt:
		e.Ckpt = new(Checkpoint)
		if err := e.Ckpt.UnmarshalWire(r); err != nil {
			return err
		}
	default:
		if r.Err() == nil {
			return fmt.Errorf("seclog: invalid entry type %d", e.Type)
		}
	}
	return r.Err()
}

// WireSize returns the metered size of the entry in bytes: what the chain
// commits to, which for checkpoint entries is the digest-only form of §5.6's
// partial retrieval (the form Figures 5, 6 and 8 account). MarshalWire now
// carries the full checkpoint payload for cross-process symmetry, so the
// two sizes differ for ECkpt entries; every other type is identical.
func (e *Entry) WireSize() int {
	w := wire.GetWriter()
	w.Int(int64(e.T))
	w.Byte(byte(e.Type))
	e.marshalContent(w)
	n := w.Len()
	wire.PutWriter(w)
	return n
}

// ---------------------------------------------------------------------------
// Authenticators.

// Authenticator is a_k = (k, t_k, h_k, σ(t_k‖h_k)): a signed commitment
// that entry k (and, through the hash chain, every earlier entry) is in the
// node's log.
type Authenticator struct {
	Node types.NodeID
	Seq  uint64 // 1-based entry index
	T    types.Time
	Hash []byte
	Sig  []byte
}

// MarshalWire implements wire.Marshaler.
func (a Authenticator) MarshalWire(w *wire.Writer) {
	w.String(string(a.Node))
	w.Uint(a.Seq)
	w.Int(int64(a.T))
	w.BytesField(a.Hash)
	w.BytesField(a.Sig)
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *Authenticator) UnmarshalWire(r *wire.Reader) error {
	a.Node = types.NodeID(r.String())
	a.Seq = r.Uint()
	a.T = types.Time(r.Int())
	a.Hash = r.BytesField()
	a.Sig = r.BytesField()
	return r.Err()
}

// WireSize returns the encoded size in bytes.
func (a Authenticator) WireSize() int { return wire.Size(a) }

// signedMaterialW encodes the byte string covered by an authenticator
// signature into a pooled writer; the caller releases it with
// wire.PutWriter once the signature operation has consumed the bytes.
func signedMaterialW(t types.Time, hash []byte) *wire.Writer {
	w := wire.GetWriter()
	w.Int(int64(t))
	w.BytesField(hash)
	return w
}

// Verify checks the authenticator's signature under pub. Results are
// memoized in the process-wide verification cache: the same authenticator is
// presented as evidence to every audit step, so repeat checks are free.
func (a Authenticator) Verify(pub cryptoutil.PublicKey) bool {
	w := signedMaterialW(a.T, a.Hash)
	ok := cryptoutil.DefaultVerifyCache.Verify(nil, pub, w.Bytes(), a.Sig)
	wire.PutWriter(w)
	return ok
}

// VerifyCounted is Verify with cache-hit accounting attributed to stats.
func (a Authenticator) VerifyCounted(stats *cryptoutil.Stats, pub cryptoutil.PublicKey) bool {
	w := signedMaterialW(a.T, a.Hash)
	ok := cryptoutil.DefaultVerifyCache.Verify(stats, pub, w.Bytes(), a.Sig)
	wire.PutWriter(w)
	return ok
}

// ---------------------------------------------------------------------------
// The log.

// ckptRef indexes one checkpoint entry: its sequence number and wire size.
// The index spares LastCheckpointBefore and checkpoint-byte accounting from
// scanning cold, disk-resident history.
type ckptRef struct {
	seq  uint64
	size int64
}

// Log is one node's tamper-evident log: entries 1..Len(), chained from a nil
// h_0, kept whole. By default every entry lives in memory; a log built with
// NewStored or Open additionally spills every entry to an append-only segment
// store on disk and keeps only a configurable hot tail of decoded entries
// resident. The zero value is not usable; call New, NewStored, or Open.
type Log struct {
	node   types.NodeID
	suite  cryptoutil.Suite
	key    cryptoutil.PrivateKey
	stats  *cryptoutil.Stats
	hashes [][]byte // hashes[i] is h_{i+1}
	// grossBytes accumulates the wire size of all appended entries (for
	// log-growth accounting, Figure 6).
	grossBytes int64

	// entries[hotStart:] holds the resident decoded entries; the entry at
	// index hotStart+i has sequence number hotFirst+i. Without a store,
	// hotFirst == 1 and every entry is resident; with a store, older entries
	// are evicted and decoded from disk on demand.
	entries  []*Entry
	hotStart int
	hotFirst uint64

	store    *Store
	hotTail  int // max resident entries when store-backed; <=0 keeps all
	storeErr error
	// recoveredTorn is how many torn-tail bytes Open truncated away when
	// this log was recovered (0 for clean opens and fresh logs).
	recoveredTorn int64

	ckpts []ckptRef // checkpoint entries, ascending by seq
}

// New creates an empty log for node with the given suite and signing key.
// stats may be nil.
func New(node types.NodeID, suite cryptoutil.Suite, key cryptoutil.PrivateKey, stats *cryptoutil.Stats) *Log {
	return &Log{node: node, suite: suite, key: key, stats: stats, hotFirst: 1}
}

// Len returns the sequence number of the last entry (0 if empty).
func (l *Log) Len() uint64 { return uint64(len(l.hashes)) }

// FirstSeq returns 1, the sequence number of a log's first entry: a log keeps
// its whole history. It is kept for its callers, which read a log from
// FirstSeq to Len.
func (l *Log) FirstSeq() uint64 { return 1 }

// GrossBytes returns the total wire size ever appended.
func (l *Log) GrossBytes() int64 { return l.grossBytes }

// HeadHash returns h_k for the last entry (nil, h_0, when empty).
func (l *Log) HeadHash() []byte {
	if len(l.hashes) == 0 {
		return nil
	}
	return l.hashes[len(l.hashes)-1]
}

// ChainHash computes h_k = H(h_{k-1} ‖ t_k ‖ y_k ‖ c_k) for an entry that
// would follow prev; the commitment protocol uses it to reconstruct a
// peer's chain position from a received envelope or acknowledgment.
func ChainHash(suite cryptoutil.Suite, stats *cryptoutil.Stats, prev []byte, e *Entry) []byte {
	return chainHash(suite, stats, prev, e)
}

// VerifyCommitment checks a signature over (t ‖ h) — the material covered
// by envelope and acknowledgment signatures as well as authenticators.
// Verification is memoized: a commitment verified when it arrived on the
// wire verifies for free when an audit replays the log that recorded it.
// stats counts the logical verification either way (Figure 7's operation
// counts are cache-independent).
func VerifyCommitment(stats *cryptoutil.Stats, pub cryptoutil.PublicKey, t types.Time, hash, sig []byte) bool {
	stats.CountVerify()
	w := signedMaterialW(t, hash)
	ok := cryptoutil.DefaultVerifyCache.Verify(stats, pub, w.Bytes(), sig)
	wire.PutWriter(w)
	return ok
}

// ReserveCommitment reserves in the verification cache the check
// VerifyCommitment(_, pub, t, hash, sig) will make, and returns it to run
// ahead on any goroutine (cryptoutil.VerifyCache.Reserve); nil when the
// commitment is already cached or being checked.
func ReserveCommitment(pub cryptoutil.PublicKey, t types.Time, hash, sig []byte) func() {
	w := signedMaterialW(t, hash)
	check := cryptoutil.DefaultVerifyCache.Reserve(pub, w.Bytes(), sig)
	wire.PutWriter(w)
	return check
}

// chainHash computes h_k = H(h_{k-1} ‖ t_k ‖ y_k ‖ c_k). The encoding is
// consumed by the hash before the pooled buffer is released.
func chainHash(suite cryptoutil.Suite, stats *cryptoutil.Stats, prev []byte, e *Entry) []byte {
	w := wire.GetWriter()
	w.BytesField(prev)
	w.Int(int64(e.T))
	w.Byte(byte(e.Type))
	e.marshalContent(w)
	stats.CountHash(w.Len())
	h := suite.Hash(w.Bytes())
	wire.PutWriter(w)
	return h
}

// Append adds an entry and returns its sequence number. When the log is
// store-backed, the entry's wire encoding is also written to the data file;
// a write failure is sticky and reported by Err (the in-memory chain stays
// authoritative for the running node).
func (l *Log) Append(e *Entry) uint64 {
	h := chainHash(l.suite, l.stats, l.HeadHash(), e)
	var size int64
	if l.store != nil && l.storeErr == nil {
		w := wire.GetWriter()
		e.MarshalWire(w)
		size = int64(w.Len())
		if err := l.store.append(w.Bytes()); err != nil {
			// The store is dead from here on: stop writing (a gap would
			// desynchronize the seq→offset index) and stop evicting (see
			// evict), so the log keeps serving correctly from memory.
			l.storeErr = err
		}
		wire.PutWriter(w)
		if e.Type == ECkpt {
			// Accounting meters the transmissible (digest) form, which is
			// what an in-memory log meters too; the store record is larger
			// because it persists the full checkpoint payload.
			size = int64(e.WireSize())
		}
	} else {
		size = int64(e.WireSize())
	}
	l.entries = append(l.entries, e)
	l.hashes = append(l.hashes, h)
	l.grossBytes += size
	seq := l.Len()
	if e.Type == ECkpt {
		l.ckpts = append(l.ckpts, ckptRef{seq: seq, size: size})
	}
	if l.store != nil && l.storeErr == nil && l.store.hooks.AfterAppend != nil {
		// After the indexes above cover the record: a hook may Sync, and
		// sealing resolves every staged record through them (sealInfo).
		l.store.hooks.AfterAppend(seq)
	}
	l.evict()
	return seq
}

// evict trims the resident window to the hot tail, releasing decoded
// entries whose bytes live in the store. Compaction is amortized so steady
// appends stay O(1).
func (l *Log) evict() {
	// A sticky store error freezes eviction: entries whose bytes never
	// reached disk (or that a broken store could no longer serve) must stay
	// resident, so the log degrades to in-memory operation instead of
	// silently serving misaligned records.
	if l.store == nil || l.hotTail <= 0 || l.storeErr != nil {
		return
	}
	for len(l.entries)-l.hotStart > l.hotTail {
		l.entries[l.hotStart] = nil
		l.hotStart++
		l.hotFirst++
	}
	if l.hotStart > l.hotTail {
		l.entries = append([]*Entry(nil), l.entries[l.hotStart:]...)
		l.hotStart = 0
	}
}

// Hash returns h_k, or an error when seq is past the head. Hash(0) is h_0,
// nil.
func (l *Log) Hash(seq uint64) ([]byte, error) {
	if seq > l.Len() {
		return nil, fmt.Errorf("seclog: no hash for entry %d (log ends at %d)", seq, l.Len())
	}
	if seq == 0 {
		return nil, nil
	}
	return l.hashes[seq-1], nil
}

// Entry returns entry seq (1-based), or an error when seq is out of range.
// Cold entries of a store-backed log are decoded from disk.
func (l *Log) Entry(seq uint64) (*Entry, error) {
	if seq == 0 || seq > l.Len() {
		return nil, fmt.Errorf("seclog: no entry %d (log ends at %d)", seq, l.Len())
	}
	if seq >= l.hotFirst {
		return l.entries[l.hotStart+int(seq-l.hotFirst)], nil
	}
	e, err := l.store.entry(seq)
	if err != nil && l.storeErr == nil {
		l.storeErr = err
	}
	return e, err
}

// Walk calls fn with every entry, 1 through Len, in order: the cold ones of a
// store-backed log decoded in one pass over the store (see coldRecords), then
// the resident ones. It returns the first read or decode error, which is
// sticky, as in Entry. e is valid only during the call: fn must neither keep
// nor modify it, and must not call into the log. Decoding gives every cold
// entry fresh slices and tuples, so what fn copies out of e stays its own.
func (l *Log) Walk(fn func(seq uint64, e *Entry)) error {
	var cold Entry
	if err := l.coldRecords(1, l.Len(), func(seq uint64, rec []byte) error {
		cold = Entry{}
		if err := wire.Decode(rec, &cold); err != nil {
			return fmt.Errorf("seclog: store record %d: %w", seq, err)
		}
		fn(seq, &cold)
		return nil
	}); err != nil {
		return err
	}
	for seq := l.hotFirst; seq <= l.Len(); seq++ {
		fn(seq, l.entries[l.hotStart+int(seq-l.hotFirst)])
	}
	return nil
}

// Authenticator signs the current head (AuthenticatorAt signs an earlier
// position).
func (l *Log) Authenticator() (Authenticator, error) {
	return l.AuthenticatorAt(l.Len())
}

// AuthenticatorAt signs position seq.
func (l *Log) AuthenticatorAt(seq uint64) (Authenticator, error) {
	e, err := l.Entry(seq)
	if err != nil {
		return Authenticator{}, err
	}
	h, err := l.Hash(seq)
	if err != nil {
		return Authenticator{}, err
	}
	w := signedMaterialW(e.T, h)
	sig, err := l.key.Sign(w.Bytes())
	wire.PutWriter(w)
	if err != nil {
		return Authenticator{}, err
	}
	l.stats.CountSign()
	return Authenticator{Node: l.node, Seq: seq, T: e.T, Hash: h, Sig: sig}, nil
}

// Sign signs arbitrary material with the log's key (used by the commitment
// protocol for envelope signatures, which cover (t‖h) like authenticators).
func (l *Log) Sign(t types.Time, hash []byte) ([]byte, error) {
	w := signedMaterialW(t, hash)
	sig, err := l.key.Sign(w.Bytes())
	wire.PutWriter(w)
	l.stats.CountSign()
	return sig, err
}

// Segment returns entries [from..to] (1-based, inclusive) together with the
// base hash h_{from-1}. It returns an error if the range is not in the log.
func (l *Log) Segment(from, to uint64) (*SegmentData, error) {
	base, err := l.segmentBase(from, to)
	if err != nil {
		return nil, err
	}
	seg := &SegmentData{Node: l.node, From: from, BaseHash: base}
	if from <= to {
		seg.Entries = make([]*Entry, 0, to-from+1)
	}
	if err := l.coldRecords(from, to, func(seq uint64, rec []byte) error {
		e, err := decodeRecord(seq, rec)
		seg.Entries = append(seg.Entries, e)
		return err
	}); err != nil {
		return nil, err
	}
	for s := max(from, l.hotFirst); s <= to; s++ {
		seg.Entries = append(seg.Entries, l.entries[l.hotStart+int(s-l.hotFirst)])
	}
	return seg, nil
}

// WriteSegment writes to w what Segment(from, to)'s MarshalWire writes,
// without decoding a stored entry: the store holds each one in that very
// encoding (Append wrote it with MarshalWire, checkpoints with their full
// payload), so its bytes are copied as they are, and only resident entries are
// encoded. On error w holds part of a segment and must be discarded.
func (l *Log) WriteSegment(w *wire.Writer, from, to uint64) error {
	base, err := l.segmentBase(from, to)
	if err != nil {
		return err
	}
	w.String(string(l.node))
	w.Uint(from)
	w.BytesField(base)
	w.Uint(to + 1 - from)
	if err := l.coldRecords(from, to, func(_ uint64, rec []byte) error {
		w.Raw(rec)
		return nil
	}); err != nil {
		return err
	}
	for s := max(from, l.hotFirst); s <= to; s++ {
		l.entries[l.hotStart+int(s-l.hotFirst)].MarshalWire(w)
	}
	return nil
}

// segmentBase checks that [from..to] is a segment of the log (to = from-1 is
// the empty one) and returns its base hash h_{from-1}.
func (l *Log) segmentBase(from, to uint64) ([]byte, error) {
	if from == 0 || to > l.Len() || from > to+1 {
		return nil, fmt.Errorf("seclog: bad segment [%d..%d] (log ends at %d)", from, to, l.Len())
	}
	return l.Hash(from - 1)
}

// coldRecords calls fn with the stored encoding of every entry of [from..to]
// that is not resident (see Store.records). A store error is sticky, as in
// Entry.
func (l *Log) coldRecords(from, to uint64, fn func(seq uint64, rec []byte) error) error {
	if from >= l.hotFirst || from > to {
		return nil
	}
	err := l.store.records(from, min(to, l.hotFirst-1), fn)
	if err != nil && l.storeErr == nil {
		l.storeErr = err
	}
	return err
}

// LastCheckpointBefore returns the sequence of the latest ECkpt entry with
// seq <= bound, or 0 if there is none.
func (l *Log) LastCheckpointBefore(bound uint64) uint64 {
	if bound > l.Len() {
		bound = l.Len()
	}
	for i := len(l.ckpts) - 1; i >= 0; i-- {
		if l.ckpts[i].seq <= bound {
			return l.ckpts[i].seq
		}
	}
	return 0
}

// CheckpointBytes returns the total wire size of the checkpoint entries (the
// Figure 6 checkpoint series), without touching cold history.
func (l *Log) CheckpointBytes() int64 {
	var sum int64
	for _, c := range l.ckpts {
		sum += c.size
	}
	return sum
}

// ---------------------------------------------------------------------------
// Store-backed operation.

// StoreBacked reports whether the log spills entries to a segment store.
func (l *Log) StoreBacked() bool { return l.store != nil }

// ColdEntries returns how many entries are resident only on disk.
func (l *Log) ColdEntries() uint64 { return l.hotFirst - 1 }

// Err returns the first store error encountered (nil for in-memory logs and
// healthy stores). A log with a sticky store error keeps serving from
// memory, but its on-disk history can no longer be trusted for recovery.
func (l *Log) Err() error { return l.storeErr }

// StoreHooks are crash-injection points for fault testing a store-backed
// log. AfterAppend runs after each record is staged and indexed, so it may
// call Flush or Sync (seq is the record's sequence number); MidFlush runs
// between the two halves of a split group write, so a hook that SIGKILLs the
// process leaves a torn last record on disk for recovery to truncate;
// MidCompact runs on the compactor goroutine after the replacement table is
// durable but before the tables it replaced are deleted, the widest crash
// window a compaction has. AfterAppend and MidFlush run on the appending
// goroutine.
type StoreHooks struct {
	AfterAppend func(seq uint64)
	MidFlush    func()
	MidCompact  func()
}

// SetStoreHooks installs crash-injection hooks on the underlying store. It
// reports whether the log is store-backed (hooks are meaningless, and
// ignored, for in-memory logs).
func (l *Log) SetStoreHooks(h StoreHooks) bool {
	if l.store == nil {
		return false
	}
	l.store.hooks = h
	return true
}

// SyncedHead returns the last durably recorded head position (sequence and
// chain hash) — what the sidecar vouches for, and therefore the newest state
// recovery is guaranteed to reach after a crash. It returns (0, nil) for
// in-memory logs and stores that have never synced.
func (l *Log) SyncedHead() (uint64, []byte) {
	if l.store == nil {
		return 0, nil
	}
	return l.store.syncedState()
}

// RecoveredTornBytes returns how many bytes of torn tail Open truncated when
// recovering this log (0 for clean opens, fresh logs, and in-memory logs).
// A non-zero value is the on-disk signature of a crash mid-append.
func (l *Log) RecoveredTornBytes() int64 { return l.recoveredTorn }

// Flush hands the store's buffered appends to the operating system (one
// positioned write for the whole group) without forcing them to stable
// storage or moving the synced head. After Flush, a process crash loses at
// most what a machine crash could already lose; use Sync for durability. It
// is a no-op for in-memory logs.
func (l *Log) Flush() error {
	if l.store == nil {
		return nil
	}
	if l.storeErr != nil {
		return l.storeErr
	}
	if err := l.store.flushBuf(); err != nil {
		// Sticky, like every other store-write failure: the on-disk image
		// has stopped advancing, and Err must say so.
		l.storeErr = err
		return err
	}
	return nil
}

// Sync group-commits the store's buffered appends (one write plus one fsync
// for the whole group) and durably records the current head in the sidecar,
// so a subsequent Open can tell tampering from a crash up to this point. It
// is a no-op for in-memory logs.
func (l *Log) Sync() error {
	if l.store == nil {
		return nil
	}
	if l.storeErr != nil {
		return l.storeErr
	}
	return l.store.sync(l.Len(), l.HeadHash(), l.sealInfo)
}

// sealInfo resolves a record's chain hash and metered size from the indexes
// the log already maintains; the store calls it while sealing tail records
// into a table so sealing never re-hashes history. seq must be in [1, Len()].
func (l *Log) sealInfo(seq uint64, recLen int64) ([]byte, int64, int64) {
	h := l.hashes[seq-1]
	for i := len(l.ckpts) - 1; i >= 0; i-- {
		if l.ckpts[i].seq == seq {
			return h, l.ckpts[i].size, l.ckpts[i].size
		}
		if l.ckpts[i].seq < seq {
			break
		}
	}
	return h, recLen, 0
}

// SetStoreTuning adjusts the store's seal and fold thresholds: sealBytes is
// the synced-tail size that triggers sealing records into an immutable
// table, foldAt the sealed-table count that triggers a background fold.
// Values <= 0 leave the corresponding threshold unchanged. It reports
// whether the log is store-backed (tuning is meaningless, and ignored, for
// in-memory logs); tests and crash harnesses lower the thresholds to force
// seals and compactions on tiny logs.
func (l *Log) SetStoreTuning(sealBytes, foldAt int) bool {
	if l.store == nil {
		return false
	}
	l.store.mu.Lock()
	if sealBytes > 0 {
		l.store.sealLimit = sealBytes
	}
	if foldAt > 0 {
		l.store.foldAt = foldAt
	}
	l.store.mu.Unlock()
	return true
}

// StoreTables reports how many sealed table files currently back the log (0
// for in-memory logs and stores that have never sealed).
func (l *Log) StoreTables() int {
	if l.store == nil {
		return 0
	}
	l.store.mu.Lock()
	defer l.store.mu.Unlock()
	return len(l.store.tables)
}

// CompactErr returns the first error the background compactor hit (nil for
// healthy stores). Compaction failures are not sticky for the log itself —
// the pre-compaction tables remain live and correct — but they mean disk
// space is no longer being reclaimed, so supervisors may want to surface it.
func (l *Log) CompactErr() error {
	if l.store == nil {
		return nil
	}
	l.store.mu.Lock()
	defer l.store.mu.Unlock()
	return l.store.compactErr
}

// Close syncs and releases the segment store. The log must not be used
// afterwards. It is a no-op for in-memory logs.
func (l *Log) Close() error {
	if l.store == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.store.close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Segments and verification.

// SegmentData is a retrieved log segment: entries From..From+len-1 with the
// hash chain's starting point.
type SegmentData struct {
	Node     types.NodeID
	From     uint64
	BaseHash []byte
	Entries  []*Entry
}

// To returns the sequence number of the last entry in the segment.
func (s *SegmentData) To() uint64 { return s.From + uint64(len(s.Entries)) - 1 }

// MarshalWire implements wire.Marshaler.
func (s *SegmentData) MarshalWire(w *wire.Writer) {
	w.String(string(s.Node))
	w.Uint(s.From)
	w.BytesField(s.BaseHash)
	w.Uint(uint64(len(s.Entries)))
	for _, e := range s.Entries {
		e.MarshalWire(w)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (s *SegmentData) UnmarshalWire(r *wire.Reader) error {
	s.Node = types.NodeID(r.String())
	s.From = r.Uint()
	s.BaseHash = r.BytesField()
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	s.Entries = make([]*Entry, n)
	for i := range s.Entries {
		s.Entries[i] = new(Entry)
		if err := s.Entries[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// WireSize returns the encoded size in bytes.
func (s *SegmentData) WireSize() int { return wire.Size(s) }

// ErrChainMismatch is returned when a segment does not reproduce the hash an
// authenticator committed to — proof of tampering.
var ErrChainMismatch = errors.New("seclog: hash chain does not match authenticator")

// VerifyAgainst recomputes the segment's hash chain and checks it against
// the authenticator (which must be signed by the segment's owner and point
// into the segment range). On success it returns the hash of every entry.
func (s *SegmentData) VerifyAgainst(suite cryptoutil.Suite, stats *cryptoutil.Stats,
	pub cryptoutil.PublicKey, auth Authenticator) ([][]byte, error) {
	// Sequence numbers are 1-based; an empty segment or a zero From would
	// make the range arithmetic below wrap, so reject them before indexing
	// anything with a peer-supplied sequence number.
	if len(s.Entries) == 0 || s.From == 0 {
		return nil, fmt.Errorf("seclog: empty or malformed segment from %s", s.Node)
	}
	if auth.Node != s.Node {
		return nil, fmt.Errorf("seclog: authenticator is from %s, segment from %s", auth.Node, s.Node)
	}
	if auth.Seq < s.From || auth.Seq > s.To() {
		return nil, fmt.Errorf("seclog: authenticator seq %d outside segment [%d..%d]", auth.Seq, s.From, s.To())
	}
	stats.CountVerify()
	if !auth.VerifyCounted(stats, pub) {
		return nil, fmt.Errorf("seclog: bad authenticator signature from %s", s.Node)
	}
	hashes := make([][]byte, len(s.Entries))
	prev := s.BaseHash
	for i, e := range s.Entries {
		prev = chainHash(suite, stats, prev, e)
		hashes[i] = prev
	}
	if !bytes.Equal(hashes[auth.Seq-s.From], auth.Hash) {
		return nil, ErrChainMismatch
	}
	return hashes, nil
}

// ---------------------------------------------------------------------------
// Authenticator sets (U_{i,j}, §5.4).

// AuthSet stores the authenticators a node has received from its peers,
// used as evidence and for the equivocation consistency check (§5.5).
type AuthSet struct {
	byNode map[types.NodeID][]Authenticator
}

// NewAuthSet returns an empty set.
func NewAuthSet() *AuthSet { return &AuthSet{byNode: make(map[types.NodeID][]Authenticator)} }

// Add records an authenticator.
func (u *AuthSet) Add(a Authenticator) {
	u.byNode[a.Node] = append(u.byNode[a.Node], a)
}

// From returns all authenticators signed by node.
func (u *AuthSet) From(node types.NodeID) []Authenticator {
	return u.byNode[node]
}

// Since returns node's authenticators from position n on, in the order they
// were added, and how many the set holds from node. The list only grows, so
// (n, length) is where a later read picks up; an n past the end reads it all.
// The slice shares the set's storage, whose filled positions are never
// written again.
func (u *AuthSet) Since(node types.NodeID, n uint64) ([]Authenticator, uint64) {
	as := u.byNode[node]
	if n > uint64(len(as)) {
		n = 0
	}
	return as[n:len(as):len(as)], uint64(len(as))
}

// FromInInterval returns node's authenticators with T in [t1, t2].
func (u *AuthSet) FromInInterval(node types.NodeID, t1, t2 types.Time) []Authenticator {
	var out []Authenticator
	for _, a := range u.byNode[node] {
		if a.T >= t1 && a.T <= t2 {
			out = append(out, a)
		}
	}
	return out
}
