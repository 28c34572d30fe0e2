// Segment store: a durable, append-only, file-backed home for a node's
// tamper-evident log. The store holds the wire encoding of every entry ever
// appended, from entry 1 on; the Log keeps only a configurable hot tail of
// decoded entries resident and re-reads cold history on demand, so a long
// log does not grow the heap.
//
// On-disk layout (per node): an active tail file, zero or more sealed
// content-addressed table files, and a sidecar:
//
//	<dir>/<node>.seglog        header ‖ record*            (append-only tail)
//	<dir>/<node>.<hash>.tbl    immutable sealed tables     (see table.go)
//	<dir>/<node>.segmeta       synced head                 (rewritten atomically)
//
// The tail file header commits to the node ID, the sequence number of its
// first record, and the hash-chain value preceding it; each record is a
// uvarint length followed by the entry's canonical wire encoding — exactly
// the bytes the chain hash covers, so recovery can re-verify the chain
// without trusting anything but the header. When the synced tail grows past
// sealLimit, its records are sealed into a table file addressed by the hash
// of its own bytes and the tail is rotated; sealed history is then read
// through a shared read-only mapping instead of a pread per cold entry. A
// background compactor folds small tables together.
//
// The files are the manifest. The tail header anchors the log: Open walks
// back from its base and base hash through table files that verify by
// content address and link by hash, down to entry 1 on a nil h_0. A seal
// writes and fsyncs its table, then publishes the rotated tail — its commit
// point: a crash before it leaves the old tail, which still holds every
// record, and an orphan table that Open removes (the seal rolls back). A fold
// writes and fsyncs the replacement table, then deletes the tables it
// replaced — its commit point: a crash before it leaves both, Open walks
// through the replacement (the table that reaches furthest back wins) and
// removes the rest. Neither writes the sidecar.
//
// Crash recovery (Open) replays only the tail — recomputing the hash chain
// from its header's base hash — and truncates a torn or garbled tail left by
// a crash mid-append at the last intact record. If the sidecar records a
// previously synced head, the recovered chain must still pass through it; a
// mismatch is evidence of tampering, not of a crash, and Open refuses the
// store.
package seclog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/types"
	"repro/internal/wire"
)

// File-format magics. The trailing newline keeps accidental text files from
// matching. SNPMET4 is the sidecar that holds only the synced head; older
// sidecars (SNPMET1's single record, SNPMET2's retention boundary and gross
// count, SNPMET3's table list) read as absent, which recovery already treats
// as "never synced".
var (
	storeMagic = []byte("SNPSEG1\n")
	metaMagic  = []byte("SNPMET4\n")
)

// storeBufLimit is the append write-buffer threshold: records accumulate in
// memory and reach the file in one positioned write per storeBufLimit bytes
// (or earlier, when a cold read or a sync needs them), instead of two
// syscalls per record.
const storeBufLimit = 1 << 18

// storeSealLimit is the sealing threshold: once a sync finds at least this
// many record bytes in the tail, they are sealed into an immutable table
// file and the tail is rotated. Small stores (tests, short experiments)
// never reach it and live entirely in the tail, exactly as before tables
// existed.
const storeSealLimit = 1 << 18

// storeFoldAt is the table count past which the background compactor folds
// the sealed tables into one.
const storeFoldAt = 6

// sealInfoFn resolves, for a record about to be sealed, its chain hash (the
// table address), its metered size (digest form for checkpoints), and
// whether it is a checkpoint. The Log provides it from the indexes it
// already maintains, so sealing never re-hashes history.
type sealInfoFn func(seq uint64, recLen int64) (hash []byte, metered int64, ckptSize int64)

// Store is the file layer under a store-backed Log: an append-only tail
// file, the sealed tables, and an in-memory seq→offset index for the tail.
// The tail is owned by the Log's goroutine (nodes are single-threaded by
// contract); the sealed-table set and the sidecar mirror are shared with
// the background compactor and guarded by mu.
//
// Appends are buffered: records land in buf and are written out in groups
// (flushBuf) when the buffer fills, when a read needs a still-buffered
// record, and — followed by one fsync for the whole group — on sync. A
// process crash can therefore lose up to bufLimit bytes of tail that a
// pre-buffering store would have handed to the OS; recovery already treats
// any missing tail past the last synced head as a torn append, so the
// failure model is unchanged, only the window is wider.
type Store struct {
	dir      string
	path     string
	metaPath string
	f        *os.File
	suite    cryptoutil.Suite

	// hooks are crash-injection points for fault testing (StoreHooks); all
	// are nil in production use.
	hooks StoreHooks

	node      types.NodeID
	base      uint64 // sequence number of the first record in the tail file
	baseHash  []byte // chain hash h_{base-1}
	offsets   []int64
	size      int64 // logical tail size: flushed bytes plus len(buf)
	headerLen int64

	buf      []byte
	flushed  int64 // bytes actually written to the tail file (buf starts here)
	bufLimit int   // flush threshold; 0 flushes after every append

	sealLimit int // tail record bytes that trigger sealing on sync
	foldAt    int // sealed-table count that triggers a background fold

	// mu guards everything below: the sealed tables, the sidecar mirror,
	// and the compactor's single-flight state.
	mu         sync.Mutex
	tables     []*tableFile
	man        manifest // the synced head the sidecar on disk records
	compacting bool
	compactErr error
	closed     bool
	wg         sync.WaitGroup
}

// storeFileName maps a node ID to a safe file name (node IDs may contain
// path separators in principle; escape keeps one flat file per node).
func storeFileName(node types.NodeID) string { return url.PathEscape(string(node)) + ".seglog" }
func metaFileName(node types.NodeID) string  { return url.PathEscape(string(node)) + ".segmeta" }

// writeTailFile publishes an empty tail file at path holding only the header
// (written to a temp file, fsynced, then renamed over any live tail, so a
// crash leaves the old tail or the new one), and returns the open handle
// plus the header length.
func writeTailFile(path string, node types.NodeID, base uint64, baseHash []byte) (*os.File, int64, error) {
	w := wire.NewWriter(64)
	w.Raw(storeMagic)
	w.String(string(node))
	w.Uint(base)
	w.BytesField(baseHash)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("seclog: create store: %w", err)
	}
	if _, err := f.Write(w.Bytes()); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("seclog: store header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("seclog: store header: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("seclog: publish tail: %w", err)
	}
	return f, int64(w.Len()), nil
}

// createStore creates the segment store for node under dir, replacing any
// earlier incarnation's, with an empty tail based at entry 1 on h_0.
func createStore(dir string, node types.NodeID, suite cryptoutil.Suite) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seclog: store dir: %w", err)
	}
	path := filepath.Join(dir, storeFileName(node))
	metaPath := filepath.Join(dir, metaFileName(node))
	// Retire the earlier incarnation in an order no crash can turn into a
	// refused store. Its sidecar goes first: its synced head, next to the
	// fresh tail, would read as lost history. Until the fresh tail is
	// published (atomically), the old files still open as the old log. Its
	// tables go last: the fresh tail, based at entry 1, never walks through
	// them, so a crash that leaves some behind costs only disk.
	if err := os.Remove(metaPath); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("seclog: store meta: %w", err)
	}
	f, headerLen, err := writeTailFile(path, node, 1, nil)
	if err != nil {
		return nil, err
	}
	if stale, temps, err := listTableFiles(dir, node, suite.HashSize()); err == nil {
		for _, name := range append(stale, temps...) {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	return &Store{
		dir:       dir,
		path:      path,
		metaPath:  metaPath,
		f:         f,
		suite:     suite,
		node:      node,
		base:      1,
		headerLen: headerLen,
		size:      headerLen,
		flushed:   headerLen,
		bufLimit:  storeBufLimit,
		sealLimit: storeSealLimit,
		foldAt:    storeFoldAt,
	}, nil
}

// append stages one record (the entry's wire encoding) in the write buffer
// and indexes it; the bytes reach the file on the next group flush.
func (s *Store) append(rec []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	off := s.size
	s.buf = append(s.buf, hdr[:n]...)
	s.buf = append(s.buf, rec...)
	s.offsets = append(s.offsets, off)
	s.size = off + int64(n) + int64(len(rec))
	if len(s.buf) >= s.bufLimit {
		if err := s.flushBuf(); err != nil {
			return err
		}
	}
	return nil
}

// flushBuf writes the buffered records to the tail in one positioned write.
// With a MidFlush hook installed, the group is written in two parts — all but
// the final byte, the hook, then the final byte — so a hook that kills the
// process leaves a genuinely torn last record on disk, exactly the state a
// machine crash mid-append produces.
func (s *Store) flushBuf() error {
	if len(s.buf) == 0 {
		return nil
	}
	if s.hooks.MidFlush != nil && len(s.buf) >= 2 {
		n := len(s.buf) - 1
		if _, err := s.f.WriteAt(s.buf[:n], s.flushed); err != nil {
			return fmt.Errorf("seclog: store append: %w", err)
		}
		s.hooks.MidFlush()
		if _, err := s.f.WriteAt(s.buf[n:], s.flushed+int64(n)); err != nil {
			return fmt.Errorf("seclog: store append: %w", err)
		}
	} else if _, err := s.f.WriteAt(s.buf, s.flushed); err != nil {
		return fmt.Errorf("seclog: store append: %w", err)
	}
	s.flushed += int64(len(s.buf))
	s.buf = s.buf[:0]
	return nil
}

// head returns the sequence number of the last record (base-1 when the tail
// is empty — the tail base always follows the sealed tables directly, so
// this is the store-wide head too).
func (s *Store) head() uint64 { return s.base - 1 + uint64(len(s.offsets)) }

// entry reads and decodes record seq.
func (s *Store) entry(seq uint64) (*Entry, error) {
	var e *Entry
	err := s.records(seq, seq, func(seq uint64, rec []byte) (err error) {
		e, err = decodeRecord(seq, rec)
		return err
	})
	return e, err
}

// decodeRecord decodes record seq's stored encoding into a fresh Entry, which
// never aliases rec (wire's field decoders copy).
func decodeRecord(seq uint64, rec []byte) (*Entry, error) {
	e := new(Entry)
	if err := wire.Decode(rec, e); err != nil {
		return nil, fmt.Errorf("seclog: store record %d: %w", seq, err)
	}
	return e, nil
}

// records calls fn, in order, with the stored encoding of every record from
// seq from through to: the sealed ones from their tables' shared mapping (no
// read syscall), under mu so that no compaction retires a table while fn
// reads it, and the rest from the tail file, all in one read. rec is valid
// only during the call, and fn must not call back into the store.
func (s *Store) records(from, to uint64, fn func(seq uint64, rec []byte) error) error {
	if to > s.head() {
		return fmt.Errorf("seclog: store has no record %d (head %d)", to, s.head())
	}
	if from < s.base && from <= to {
		if err := s.tableRecords(from, min(to, s.base-1), fn); err != nil {
			return err
		}
		from = s.base
	}
	if from > to {
		return nil
	}
	return s.tailRecords(from, to, fn)
}

// tableRecords is records for a run of sealed records.
func (s *Store) tableRecords(from, to uint64, fn func(seq uint64, rec []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tables {
		for ; from <= to && t.has(from); from++ {
			if err := fn(from, t.record(from)); err != nil {
				return err
			}
		}
	}
	if from <= to {
		return fmt.Errorf("seclog: store has no sealed record %d", from)
	}
	return nil
}

// tailRecords is records for a run of tail records: one read for the run,
// after flushing the write buffer if the run reaches into it.
func (s *Store) tailRecords(from, to uint64, fn func(seq uint64, rec []byte) error) error {
	i, j := from-s.base, to-s.base
	start := s.offsets[i]
	end := s.size
	if j+1 < uint64(len(s.offsets)) {
		end = s.offsets[j+1]
	}
	if end > s.flushed {
		if err := s.flushBuf(); err != nil {
			return err
		}
	}
	buf := make([]byte, end-start)
	if _, err := s.f.ReadAt(buf, start); err != nil {
		return fmt.Errorf("seclog: store read %d..%d: %w", from, to, err)
	}
	for k := i; k <= j; k++ {
		frame := buf[s.offsets[k]-start:]
		if k < j {
			frame = frame[:s.offsets[k+1]-s.offsets[k]]
		}
		n, ln := binary.Uvarint(frame)
		if ln <= 0 || uint64(len(frame)-ln) != n {
			return fmt.Errorf("seclog: store record %d has a corrupt length", s.base+k)
		}
		if err := fn(s.base+k, frame[ln:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadSidecar reports the on-disk sidecar state for node under dir: the last
// durably synced head (seq + chain hash). ok is false when no intact sidecar
// exists. It reads only the small sidecar file — safe to call on a live
// store from another process, since the sidecar is replaced atomically.
func ReadSidecar(dir string, node types.NodeID) (headSeq uint64, headHash []byte, ok bool, err error) {
	m, ok, err := readMeta(filepath.Join(dir, metaFileName(node)))
	if !ok || err != nil {
		return 0, nil, ok, err
	}
	return m.head, m.headHash, true, nil
}

// sync group-commits the buffered appends (one write, one fsync for the
// whole group) and records the current head in the sidecar, so a later Open
// can distinguish tampering from a crash up to this point. When the synced
// tail has outgrown sealLimit, its records are sealed into a table file and
// the tail is rotated; info resolves chain hashes and metered sizes for the
// records (nil disables sealing — used only while healing during Open,
// before the Log exists).
func (s *Store) sync(headSeq uint64, headHash []byte, info sealInfoFn) error {
	if err := s.flushBuf(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("seclog: store sync: %w", err)
	}
	man := manifest{head: headSeq, headHash: append([]byte(nil), headHash...)}
	tmp := s.metaPath + ".tmp"
	if err := os.WriteFile(tmp, encodeManifest(&man), 0o644); err != nil {
		return fmt.Errorf("seclog: store meta: %w", err)
	}
	if err := os.Rename(tmp, s.metaPath); err != nil {
		return fmt.Errorf("seclog: store meta: %w", err)
	}
	s.mu.Lock()
	s.man = man
	s.mu.Unlock()
	if info != nil && s.size-s.headerLen >= int64(s.sealLimit) && s.head() >= s.base {
		if err := s.seal(headHash, info); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.maybeCompactLocked()
	s.mu.Unlock()
	return nil
}

// seal moves the tail's records (all of them — the tail is fully flushed and
// fsynced by the time seal runs) into an immutable content-addressed table
// and rotates the tail to empty. The table is durable before the rotated
// tail is published, which is the seal's commit point: a crash before it
// leaves the old tail, still holding every record, and an orphan table that
// Open removes.
func (s *Store) seal(headHash []byte, info sealInfoFn) error {
	raw, err := os.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("seclog: store seal: %w", err)
	}
	if int64(len(raw)) != s.flushed {
		return fmt.Errorf("seclog: store seal: tail is %d bytes, expected %d", len(raw), s.flushed)
	}
	head := s.head()
	recs := make([]tableRecord, 0, len(s.offsets))
	for i, off := range s.offsets {
		seq := s.base + uint64(i)
		end := s.flushed
		if i+1 < len(s.offsets) {
			end = s.offsets[i+1]
		}
		frame := raw[off:end]
		n, ln := binary.Uvarint(frame)
		if ln <= 0 || uint64(len(frame)-ln) != n {
			return fmt.Errorf("seclog: store seal: record %d has a corrupt length", seq)
		}
		rec := frame[ln:]
		hash, metered, ckptSize := info(seq, int64(len(rec)))
		recs = append(recs, tableRecord{addr: hash, rec: rec, metered: metered, ckptSize: ckptSize})
	}
	t, err := writeTable(s.dir, s.node, s.suite, s.base, s.baseHash, recs)
	if err != nil {
		return err
	}
	f, headerLen, err := writeTailFile(s.path, s.node, head+1, headHash)
	if err != nil {
		_ = t.close()
		return err
	}
	s.mu.Lock()
	s.tables = append(s.tables, t)
	s.mu.Unlock()
	old := s.f
	s.f = f
	_ = old.Close()
	s.base = head + 1
	s.baseHash = append([]byte(nil), headHash...)
	s.offsets = s.offsets[:0]
	s.headerLen = headerLen
	s.size = headerLen
	s.flushed = headerLen
	s.buf = s.buf[:0]
	return nil
}

// syncedState returns the sidecar's synced head (sequence and chain hash).
func (s *Store) syncedState() (uint64, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.head, append([]byte(nil), s.man.headHash...)
}

// close flushes buffered appends, waits for any in-flight compaction, and
// releases the tail handle and the table mappings.
func (s *Store) close() error {
	err := s.flushBuf()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.mu.Lock()
	tables := s.tables
	s.tables = nil
	s.mu.Unlock()
	for _, t := range tables {
		if cerr := t.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// NewStored creates a Log whose entries are spilled to a fresh segment store
// under dir. hotTail bounds the number of decoded entries kept resident
// (<=0 keeps everything hot; the store is then pure durability).
func NewStored(dir string, node types.NodeID, suite cryptoutil.Suite, key cryptoutil.PrivateKey,
	stats *cryptoutil.Stats, hotTail int) (*Log, error) {
	st, err := createStore(dir, node, suite)
	if err != nil {
		return nil, err
	}
	l := New(node, suite, key, stats)
	l.store = st
	l.hotTail = hotTail
	return l, nil
}

// Open reopens a store-backed log from dir after a restart or crash. The
// tail header anchors the log: Open walks back from its base and base hash
// through the table files that verify by content address and link by hash,
// and the walk must end at entry 1 on h_0 — a store that starts later has
// lost data and is refused. The tail is replayed, re-verifying the hash chain
// from its base hash (and, when the sidecar has a synced head, against that
// head); a torn tail left by a crash mid-append is truncated away. A table
// off the walk is removed when the recovered chain holds every one of its
// records hash for hash (an interrupted seal's orphan, the tables a fold
// replaced) and left in place otherwise, as is a file that does not verify.
// The reopened log serves retrieve and audit requests byte-for-byte
// identically to the log that wrote the files.
//
// key may be nil when the reopened log only serves reads (Segment, Entry,
// Hash); signing operations then fail.
func Open(dir string, node types.NodeID, suite cryptoutil.Suite, key cryptoutil.PrivateKey,
	stats *cryptoutil.Stats, hotTail int) (*Log, error) {
	path := filepath.Join(dir, storeFileName(node))
	metaPath := filepath.Join(dir, metaFileName(node))
	man, manOK, err := readMeta(metaPath)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("seclog: open store: %w", err)
	}
	names, temps, err := listTableFiles(dir, node, suite.HashSize())
	if err != nil {
		return nil, err
	}
	// Crash debris: a table, tail or sidecar rewrite that died before its
	// rename. Best effort, here and for redundant tables below: a file that
	// stays costs only disk.
	for _, name := range append(temps, storeFileName(node)+".tmp", metaFileName(node)+".tmp") {
		_ = os.Remove(filepath.Join(dir, name))
	}
	r := wire.NewReader(raw)
	if !bytes.Equal(r.Raw(len(storeMagic)), storeMagic) {
		return nil, fmt.Errorf("seclog: %s is not a segment store", path)
	}
	if got := types.NodeID(r.String()); got != node {
		return nil, fmt.Errorf("seclog: store %s belongs to node %s, not %s", path, got, node)
	}
	base := r.Uint()
	baseHash := r.BytesField()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("seclog: store %s header: %w", path, err)
	}
	if base == 0 {
		return nil, fmt.Errorf("seclog: store %s has invalid base sequence 0", path)
	}
	headerLen := int64(len(raw) - r.Remaining())

	var cands []*tableFile
	for _, name := range names {
		if t, terr := openTable(filepath.Join(dir, name), node, suite, nil); terr == nil {
			cands = append(cands, t)
		}
	}
	closeAll := func() {
		for _, t := range cands {
			_ = t.close()
		}
	}
	tables := walkTables(cands, base, baseHash)
	oldest, oldestHash := base, baseHash
	if len(tables) > 0 {
		oldest, oldestHash = tables[0].base, tables[0].baseHash
	}
	if oldest != 1 {
		closeAll()
		return nil, fmt.Errorf("seclog: store %s lost entries 1..%d", path, oldest-1)
	}
	if len(oldestHash) != 0 {
		closeAll()
		return nil, fmt.Errorf("seclog: store %s: %w before entry 1", path, ErrChainMismatch)
	}

	// The whole chain h_1..h_head: the tables' addresses, copied out of the
	// mappings a compaction may release, then the replayed tail's.
	var (
		chain    [][]byte
		entries  []*Entry
		offsets  []int64
		ckpts    []ckptRef
		gross    int64
		goodSize = headerLen
		prev     = baseHash
	)
	for _, t := range tables {
		for _, a := range t.addrs {
			chain = append(chain, append([]byte(nil), a...))
		}
		gross += t.gross
		ckpts = append(ckpts, t.ckpts...)
	}
	// Replay the tail records, recomputing the chain. A record that cannot
	// be fully read or decoded marks the torn tail: everything before it is
	// intact (the chain vouches for it), everything from it on is discarded.
	for r.Remaining() > 0 {
		frameStart := int64(len(raw) - r.Remaining())
		recLen := r.Uint()
		if r.Err() != nil || recLen > uint64(r.Remaining()) {
			break // torn length prefix
		}
		rec := r.Raw(int(recLen))
		e := new(Entry)
		if err := wire.Decode(rec, e); err != nil {
			break // torn record
		}
		goodSize = int64(len(raw) - r.Remaining())
		offsets = append(offsets, frameStart)
		prev = chainHash(suite, stats, prev, e)
		chain = append(chain, prev)
		entries = append(entries, e)
		// Accounting uses the transmissible (digest-form) size, matching
		// what the log metered when it appended the entry.
		size := int64(len(rec))
		if e.Type == ECkpt {
			size = int64(e.WireSize())
			ckpts = append(ckpts, ckptRef{seq: uint64(len(chain)), size: size})
		}
		gross += size
	}
	head := uint64(len(chain))
	if manOK {
		// The synced head must lie on the recovered chain: a shorter chain
		// means data the node had committed to is gone (not a torn-append
		// crash), and a different hash means the file was rewritten.
		if man.head > head {
			closeAll()
			return nil, fmt.Errorf("seclog: store %s lost entries %d..%d past the synced head", path, head+1, man.head)
		}
		var synced []byte // h_0 is nil
		if man.head > 0 {
			synced = chain[man.head-1]
		}
		if !bytes.Equal(synced, man.headHash) {
			closeAll()
			return nil, fmt.Errorf("seclog: store %s: %w at synced head %d", path, ErrChainMismatch, man.head)
		}
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("seclog: open store: %w", err)
	}
	if goodSize < int64(len(raw)) {
		if err := f.Truncate(goodSize); err != nil {
			f.Close()
			closeAll()
			return nil, fmt.Errorf("seclog: truncate torn tail: %w", err)
		}
	}
	for _, t := range cands {
		if slices.Contains(tables, t) {
			continue
		}
		held := heldBy(t, chain)
		_ = t.close()
		if held {
			_ = os.Remove(t.path)
		}
	}

	st := &Store{
		dir:       dir,
		path:      path,
		metaPath:  metaPath,
		f:         f,
		suite:     suite,
		node:      node,
		base:      base,
		baseHash:  append([]byte(nil), baseHash...),
		offsets:   offsets,
		headerLen: headerLen,
		size:      goodSize,
		flushed:   goodSize,
		bufLimit:  storeBufLimit,
		sealLimit: storeSealLimit,
		foldAt:    storeFoldAt,
		tables:    tables,
	}
	l := New(node, suite, key, stats)
	l.store = st
	l.hotTail = hotTail
	l.hashes = chain
	l.grossBytes = gross
	l.recoveredTorn = int64(len(raw)) - goodSize
	l.ckpts = ckpts
	// Keep only the hot tail resident; cold history stays in the tables and
	// the tail file. With no hot-tail bound everything must be resident, so
	// sealed entries are decoded once from the mapping.
	l.hotFirst = base
	resident := entries
	if hotTail > 0 && len(resident) > hotTail {
		l.hotFirst = head - uint64(hotTail) + 1
		resident = resident[len(resident)-hotTail:]
	}
	if hotTail <= 0 && l.hotFirst > 1 {
		var cold []*Entry
		if derr := st.records(1, l.hotFirst-1, func(seq uint64, rec []byte) error {
			e, err := decodeRecord(seq, rec)
			cold = append(cold, e)
			return err
		}); derr != nil {
			_ = st.close()
			return nil, derr
		}
		resident = append(cold, resident...)
		l.hotFirst = 1
	}
	l.entries = append([]*Entry(nil), resident...)
	// Record the recovered state as the new synced head.
	if err := st.sync(head, l.HeadHash(), nil); err != nil {
		_ = st.close()
		return nil, err
	}
	return l, nil
}

// walkTables returns the run of candidate tables that ends right below a
// tail based at base on baseHash, walking back as far as the hash links
// reach. At each step it takes the table that reaches furthest back, so a
// fold wins over the tables it replaced.
func walkTables(cands []*tableFile, base uint64, baseHash []byte) []*tableFile {
	var run []*tableFile
	for base > 1 {
		var next *tableFile
		for _, t := range cands {
			if t.end() == base-1 && bytes.Equal(t.headHash(), baseHash) && (next == nil || t.base < next.base) {
				next = t
			}
		}
		if next == nil {
			break
		}
		run = append(run, next)
		base, baseHash = next.base, next.baseHash
	}
	slices.Reverse(run)
	return run
}

// heldBy reports whether chain (h_1..h_head) holds every record of t, hash
// for hash, so that deleting t loses nothing.
func heldBy(t *tableFile, chain [][]byte) bool {
	if t.end() > uint64(len(chain)) {
		return false
	}
	for seq := t.base; seq <= t.end(); seq++ {
		if !bytes.Equal(t.addr(seq), chain[seq-1]) {
			return false
		}
	}
	return true
}
