// Persistent incremental-audit cache. Auditing an unchanged segment twice
// repeats a fully deterministic computation: the replica-machine replay and
// the op stream it produces depend only on the segment bytes, and those are
// pinned by the chain hash the authenticator signs. The cache therefore
// keys a serialized prepared-audit op stream by segment identity (node,
// range, head chain hash) and lets Auditor.Prepare skip the replica-machine
// replay for a segment it has audited before.
//
// What a hit may — and may not — trust. The cache lives in local files; a
// tampered entry must never let the auditor construct a provable accusation
// of an honest node (Theorem 5 discipline extends to our own disk). So the
// hit path re-derives everything accusation-capable from the freshly
// verified segment: failures, implied chain commitments (peer signatures
// are re-verified), the sent-envelope map, checkpoint digests, and the
// end-of-log time. The cached stream supplies only what is expensive and
// machine-deterministic — the replica machine's outputs per event and its
// final state snapshot — and every re-derived op must match its cached
// counterpart in lockstep. Any divergence, decode failure, or integrity
// mismatch silently falls back to a fresh replay, which then overwrites the
// entry. A poisoned cache can at worst cost time or suppress detection of
// an already-faulty node; it cannot manufacture evidence.
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/cryptoutil"
	"repro/internal/types"
	"repro/internal/wire"
)

// auditCacheDomain separates audit-cache keys from every other use of the
// suite hash.
const auditCacheDomain = "snpaudit1"

const auditCacheVersion = 1

// On disk the cache is a directory with one file per key,
// <hex(key)>.audit = H(body) || body. A put writes a temp file in the same
// directory and renames it into place, so a reader sees the old body, the
// new body, or no file, and a crash leaves at worst a temp file that the
// next open removes. Nothing is fsynced: a body the file system tore fails
// the integrity prefix and is a miss like any other.
const (
	auditCacheExt = ".audit"
	auditCacheTmp = ".tmp"
)

// AuditCache is a handle on the durable audit cache, shared by every
// Auditor built from the same Config. Safe for concurrent use.
type AuditCache struct {
	dir   string
	suite cryptoutil.Suite

	hits   atomic.Uint64
	misses atomic.Uint64
}

// OpenAuditCache opens (or creates) the audit cache rooted at dir.
func OpenAuditCache(dir string, suite cryptoutil.Suite) (*AuditCache, error) {
	if suite == nil {
		suite = cryptoutil.Ed25519SHA256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: audit cache dir: %w", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: audit cache dir: %w", err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), auditCacheTmp) {
			_ = os.Remove(filepath.Join(dir, f.Name())) // left by a crashed put
		}
	}
	return &AuditCache{dir: dir, suite: suite}, nil
}

// Sync has nothing to flush: a put is complete when its rename returns, and
// the cache promises no more durability than that.
func (c *AuditCache) Sync() error { return nil }

// Close releases the cache. The handle holds no open files.
func (c *AuditCache) Close() error { return nil }

// Hits returns how many Prepare calls were served from the cache.
func (c *AuditCache) Hits() uint64 { return c.hits.Load() }

// Misses returns how many Prepare calls consulted the cache and fell back
// to a fresh replay (including entries rejected by validation).
func (c *AuditCache) Misses() uint64 { return c.misses.Load() }

// key derives the cache address of one audited segment. The head chain hash
// covers every entry byte in the range, so equal keys imply equal segments;
// any chain divergence changes the key and invalidates the entry.
func (c *AuditCache) key(node types.NodeID, from, to uint64, headHash []byte) []byte {
	var fb, tb [8]byte
	binary.BigEndian.PutUint64(fb[:], from)
	binary.BigEndian.PutUint64(tb[:], to)
	return c.suite.Hash([]byte(auditCacheDomain), []byte(node), fb[:], tb[:], headHash)
}

// path returns the file that holds the body stored under key.
func (c *AuditCache) path(key []byte) string {
	return filepath.Join(c.dir, hex.EncodeToString(key)+auditCacheExt)
}

// get loads and integrity-checks the body stored under key.
func (c *AuditCache) get(key []byte) ([]byte, bool) {
	payload, err := os.ReadFile(c.path(key))
	hs := c.suite.HashSize()
	if err != nil || len(payload) < hs {
		return nil, false
	}
	sum, body := payload[:hs], payload[hs:]
	if !bytes.Equal(sum, c.suite.Hash(body)) {
		return nil, false
	}
	return body, true
}

// put stores body under key with an integrity prefix. A failed put is just
// a future miss.
func (c *AuditCache) put(key, body []byte) {
	f, err := os.CreateTemp(c.dir, "put-*"+auditCacheTmp)
	if err != nil {
		return
	}
	_, err = f.Write(append(c.suite.Hash(body), body...))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), c.path(key))
	}
	if err != nil {
		_ = os.Remove(f.Name())
	}
}

// ---------------------------------------------------------------------------
// Op-stream serialization.
//
// Only cache-trustable material is stored per op: for opEvent the machine
// outputs (the event itself is re-derived from the segment), for the seed
// and implied ops their full fields — used solely to cross-check the
// re-derived ops, never adopted. opFail is deliberately unrepresentable: a
// replay that found a failure is never cached, and a stream claiming one
// would be rejected.

func encodeAuditBody(hadMachine bool, snapshot []byte, endTime types.Time, ops []replayOp) []byte {
	w := wire.NewWriter(1024)
	w.Byte(auditCacheVersion)
	w.Bool(hadMachine)
	w.BytesField(snapshot)
	w.Int(int64(endTime))
	w.Uint(uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		w.Byte(byte(op.kind))
		switch op.kind {
		case opEvent:
			w.Uint(uint64(len(op.outs)))
			for j := range op.outs {
				marshalOutput(w, &op.outs[j])
			}
		case opSeedExist:
			w.String(string(op.seed.node))
			op.seed.tup.MarshalWire(w)
			w.Int(int64(op.seed.t))
		case opSeedBelieve:
			w.String(string(op.seed.node))
			w.String(string(op.seed.origin))
			op.seed.tup.MarshalWire(w)
			w.Int(int64(op.seed.t))
		case opImplied:
			w.String(string(op.commit.node))
			w.Uint(op.commit.seq)
			w.BytesField(op.commit.hash)
			w.Int(int64(op.commit.t))
			w.String(string(op.commit.reporter))
			w.Uint(uint64(len(op.commit.msgs)))
			for j := range op.commit.msgs {
				op.commit.msgs[j].MarshalWire(w)
			}
		}
	}
	return w.Bytes()
}

// cachedAudit is a decoded cache body.
type cachedAudit struct {
	hadMachine bool
	snapshot   []byte
	endTime    types.Time
	ops        []replayOp
}

func decodeAuditBody(raw []byte) (*cachedAudit, error) {
	r := wire.NewReader(raw)
	if v := r.Byte(); v != auditCacheVersion {
		return nil, fmt.Errorf("core: audit cache version %d", v)
	}
	ca := &cachedAudit{}
	ca.hadMachine = r.Bool()
	ca.snapshot = r.BytesField()
	ca.endTime = types.Time(r.Int())
	nops := r.Count()
	for i := 0; i < nops; i++ {
		var op replayOp
		op.kind = opKind(r.Byte())
		switch op.kind {
		case opEvent:
			nouts := r.Count()
			for j := 0; j < nouts; j++ {
				var out types.Output
				if err := unmarshalOutput(r, &out); err != nil {
					return nil, err
				}
				op.outs = append(op.outs, out)
			}
		case opSeedExist:
			op.seed = &seedOp{node: types.NodeID(r.String())}
			if err := op.seed.tup.UnmarshalWire(r); err != nil {
				return nil, err
			}
			op.seed.t = types.Time(r.Int())
		case opSeedBelieve:
			op.seed = &seedOp{node: types.NodeID(r.String()), origin: types.NodeID(r.String())}
			if err := op.seed.tup.UnmarshalWire(r); err != nil {
				return nil, err
			}
			op.seed.t = types.Time(r.Int())
		case opImplied:
			ic := &impliedCommit{node: types.NodeID(r.String()), seq: r.Uint()}
			ic.hash = r.BytesField()
			ic.t = types.Time(r.Int())
			ic.reporter = types.NodeID(r.String())
			nmsgs := r.Count()
			for j := 0; j < nmsgs; j++ {
				var m types.Message
				if err := m.UnmarshalWire(r); err != nil {
					return nil, err
				}
				ic.msgs = append(ic.msgs, m)
			}
			op.commit = ic
		default:
			return nil, fmt.Errorf("core: audit cache op kind %d", op.kind)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		ca.ops = append(ca.ops, op)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return ca, nil
}

func marshalOutput(w *wire.Writer, o *types.Output) {
	w.Byte(byte(o.Kind))
	o.Tuple.MarshalWire(w)
	w.String(o.Rule)
	w.Uint(uint64(len(o.Body)))
	for i := range o.Body {
		o.Body[i].MarshalWire(w)
	}
	w.Uint(uint64(len(o.Replaces)))
	for i := range o.Replaces {
		o.Replaces[i].MarshalWire(w)
	}
	w.Bool(o.First)
	w.Bool(o.Last)
	w.Bool(o.Msg != nil)
	if o.Msg != nil {
		o.Msg.MarshalWire(w)
	}
}

func unmarshalOutput(r *wire.Reader, o *types.Output) error {
	o.Kind = types.OutputKind(r.Byte())
	if err := o.Tuple.UnmarshalWire(r); err != nil {
		return err
	}
	if o.Tuple.Rel == "" && len(o.Tuple.Args) == 0 {
		// A zero tuple (e.g. on OutSend outputs) must round-trip to the
		// zero value, or a hit would not be deeply identical to a fresh
		// replay.
		o.Tuple = types.Tuple{}
	}
	o.Rule = r.String()
	nb := r.Count()
	for i := 0; i < nb; i++ {
		var t types.Tuple
		if err := t.UnmarshalWire(r); err != nil {
			return err
		}
		o.Body = append(o.Body, t)
	}
	nr := r.Count()
	for i := 0; i < nr; i++ {
		var t types.Tuple
		if err := t.UnmarshalWire(r); err != nil {
			return err
		}
		o.Replaces = append(o.Replaces, t)
	}
	o.First = r.Bool()
	o.Last = r.Bool()
	if r.Bool() {
		var m types.Message
		if err := m.UnmarshalWire(r); err != nil {
			return err
		}
		o.Msg = &m
	}
	return r.Err()
}

// ---------------------------------------------------------------------------
// The lockstep cursor. A prep running in cached mode walks the segment
// exactly as a fresh replay would, and the cursor pairs each re-derived op
// with the next cached one. Machine outputs flow cache→replay; everything
// else flows replay→cache as a consistency check.

type cacheCursor struct {
	ca          *cachedAudit
	pos         int
	bad         bool
	needMachine bool
}

// next consumes the next cached op, requiring the given kind.
func (c *cacheCursor) next(kind opKind) *replayOp {
	if c.bad || c.pos >= len(c.ca.ops) {
		c.bad = true
		return nil
	}
	op := &c.ca.ops[c.pos]
	c.pos++
	if op.kind != kind {
		c.bad = true
		return nil
	}
	return op
}

// done reports whether the walk consumed the stream exactly.
func (c *cacheCursor) done() bool { return !c.bad && c.pos == len(c.ca.ops) }

func sameTuple(a, b types.Tuple) bool { return a.Equal(b) }

func sameMessage(a, b *types.Message) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Pol == b.Pol &&
		a.Seq == b.Seq && a.SendTime == b.SendTime && a.Tuple.Equal(b.Tuple)
}

// checkImplied compares a cached implied op against the re-derived one.
func checkImplied(cached *replayOp, ic *impliedCommit) bool {
	if cached == nil || cached.commit == nil {
		return false
	}
	cc := cached.commit
	if cc.node != ic.node || cc.seq != ic.seq ||
		!bytes.Equal(cc.hash, ic.hash) || cc.t != ic.t || cc.reporter != ic.reporter ||
		len(cc.msgs) != len(ic.msgs) {
		return false
	}
	for i := range ic.msgs {
		if !sameMessage(&cc.msgs[i], &ic.msgs[i]) {
			return false
		}
	}
	return true
}
