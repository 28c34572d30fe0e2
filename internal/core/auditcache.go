// Persistent audit cache. Auditing an unchanged segment twice repeats a
// fully deterministic computation: what the replica machine outputs at each
// step depends only on the segment bytes, and those are pinned by the chain
// hash the authenticator signs. The cache therefore keeps, per node and start
// of replay, a recording of the machine — the outputs of each event it was
// stepped with, and the chain hash and step count at each log entry to say
// which walk that was — and Auditor.Prepare plays the recording back in place
// of a replica. A log grows at its head and is audited through different ends
// (RetrieveRequest.EndTime), so the recording of a walk answers any prefix of
// it: the entry at which the prefix stops names its hash and its steps.
//
// What a hit may — and may not — trust. The cache lives in local files; a
// tampered entry must never let the auditor construct a provable accusation
// of an honest node (Theorem 5 discipline extends to our own disk). A hit is
// the same walk over the freshly verified segment as a miss
// (prep.replayEntries), with the recording as its machine: failures, implied
// chain commitments (peer signatures are re-verified), checkpoint seeds and
// digests, the sent-envelope map and the end-of-log time all come from the
// segment, every time. A body that does not decode, a recorded chain that is
// not the verified one where the walk stops, a recording the walk does not
// consume exactly, or a walk that finds a failure is a miss: a fresh replay
// through a real replica, which then overwrites the entry.
//
// What those checks cannot vouch for is the machine outputs a recording
// plays, and the outputs decide colors: one forged send output with every
// count kept colors an honest node red. So a recording is held state under
// the ledger's rule — it may confirm "still clean", never accuse. The auditor
// notes that it played one, and an answer that carries a failure or a red
// vertex after that is asked again on a Querier without the cache
// (Querier.ForgetRecordings; adversary.Sweep does so, and the frontend's
// Explain reads no cache at all). A poisoned cache can therefore at worst cost time or suppress
// detection of an already-faulty node; every accusation comes from a replica.
package core

import (
	"bytes"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/cryptoutil"
	"repro/internal/provgraph"
	"repro/internal/types"
	"repro/internal/wire"
)

// auditCacheVersion is the first byte of every body; a body that starts
// with any other is not decoded, and open removes it.
const auditCacheVersion = 3

// On disk the cache is a directory with one file per node and start of
// replay, named <escaped node>.<from>.audit and holding H(name || body) ||
// body, so that a body copied under another name fails like a damaged one. A
// put writes a temp file in the same directory and renames it into place, so
// a reader sees the old body, the new body, or no file, and a crash leaves
// at worst a temp file that the next open removes. Nothing is fsynced: a
// body the file system tore fails the integrity prefix and is a miss like
// any other. The rename is also how an entry is superseded: a put happens
// when the recording on file is too short for the walk or is of another log
// (a deployment that reuses node names), and either way takes its place.
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

// OpenAuditCache opens (or creates) the audit cache rooted at dir, removing
// what a crashed put or an older format left there.
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
	c := &AuditCache{dir: dir, suite: suite}
	for _, f := range files {
		path := filepath.Join(dir, f.Name())
		if strings.HasSuffix(path, auditCacheTmp) ||
			strings.HasSuffix(path, auditCacheExt) && !c.currentVersion(path) {
			_ = os.Remove(path)
		}
	}
	return c, nil
}

// currentVersion reports whether the body in the file at path starts with
// this format's version byte.
func (c *AuditCache) currentVersion(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var v [1]byte
	_, err = f.ReadAt(v[:], int64(c.suite.HashSize()))
	return err == nil && v[0] == auditCacheVersion
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

// key names the file of the recording of node's log replayed from position
// from on.
func (c *AuditCache) key(node types.NodeID, from uint64) string {
	escaped := strings.ReplaceAll(url.PathEscape(string(node)), ".", "%2E")
	return fmt.Sprintf("%s.%d%s", escaped, from, auditCacheExt)
}

// get loads and integrity-checks the body stored under key.
func (c *AuditCache) get(key string) ([]byte, bool) {
	payload, err := os.ReadFile(filepath.Join(c.dir, key))
	hs := c.suite.HashSize()
	if err != nil || len(payload) < hs {
		return nil, false
	}
	sum, body := payload[:hs], payload[hs:]
	if !bytes.Equal(sum, c.suite.Hash([]byte(key), body)) {
		return nil, false
	}
	return body, true
}

// put stores body under key with an integrity prefix, in place of whatever
// the key named before. A failed put is just a future miss.
func (c *AuditCache) put(key string, body []byte) {
	f, err := os.CreateTemp(c.dir, "put-*"+auditCacheTmp)
	if err != nil {
		return
	}
	_, err = f.Write(append(c.suite.Hash([]byte(key), body), body...))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(c.dir, key))
	}
	if err != nil {
		_ = os.Remove(f.Name())
	}
}

// ---------------------------------------------------------------------------
// The recorded machine.

// recording is a types.Machine that answers each Step with the outputs a
// real replica produced at that step of the same walk. It has no state:
// Restore accepts anything, Snapshot has nothing to show (replayCkpt skips
// the one comparison that would need it).
type recording struct {
	// chain and cum say which walk was recorded: the chain hash of each entry
	// walked (size bytes each), and how often the machine had been stepped
	// when the walk was through with it.
	size  int
	chain []byte
	cum   []int
	// steps are the outputs of the steps to be played, in order: of the whole
	// walk when it was recorded, of the prefix asked for when decoded.
	steps [][]types.Output
	next  int // Step calls so far, however many were recorded
}

func (r *recording) Step(types.Event) []types.Output {
	r.next++
	if r.next > len(r.steps) {
		return nil
	}
	return r.steps[r.next-1]
}

func (r *recording) Restore([]byte) error { return nil }
func (r *recording) Snapshot() []byte     { return nil }

// spent reports whether the walk stepped exactly as often as the recorded
// one had by the same entry: one step short or long, and the recording is of
// some other walk.
func (r *recording) spent() bool { return r.next == len(r.steps) }

// record extracts the recording a finished replay leaves behind; the walk
// counted its steps into p.cum.
func record(p *prep) *recording {
	r := &recording{size: p.audited.size, chain: p.audited.chain, cum: p.cum}
	for i := range p.ops {
		if p.ops[i].kind == opEvent && provgraph.StepsMachine(p.ops[i].ev) {
			r.steps = append(r.steps, p.ops[i].outs)
		}
	}
	return r
}

// recording returns the recording stored under key, ready to play a walk of
// the first n entries it recorded, or nil: there is none, it records fewer,
// or its n-th entry is not the one whose verified chain hash is head.
func (c *AuditCache) recording(key string, n int, head []byte) *recording {
	body, ok := c.get(key)
	if !ok {
		return nil
	}
	r, err := decodeRecording(body, c.suite.HashSize(), n)
	if err != nil || !bytes.Equal(r.chain[(n-1)*r.size:n*r.size], head) {
		return nil
	}
	return r
}

// encode serializes r, the recording of a whole walk, as a cache body: the
// version byte; the chain, then the steps each entry took; then the outputs
// of each step.
func (r *recording) encode() []byte {
	w := wire.NewWriter(1024 + len(r.chain))
	w.Byte(auditCacheVersion)
	w.Uint(uint64(len(r.cum)))
	w.Raw(r.chain)
	before := 0
	for _, through := range r.cum {
		w.Uint(uint64(through - before))
		before = through
	}
	w.Uint(uint64(len(r.steps)))
	for _, outs := range r.steps {
		w.Uint(uint64(len(outs)))
		for j := range outs {
			marshalOutput(w, &outs[j])
		}
	}
	return w.Bytes()
}

// decodeRecording parses a cache body, whose hashes are size bytes long, as
// far as a walk of the first n recorded entries needs it: the whole table,
// and the outputs of the steps those entries took. A body that records fewer
// than n entries is an error, like one that does not parse.
func decodeRecording(raw []byte, size, n int) (*recording, error) {
	r := wire.NewReader(raw)
	if v := r.Byte(); v != auditCacheVersion {
		return nil, fmt.Errorf("core: audit cache version %d", v)
	}
	// Every entry occupies size+1 bytes or more, which bounds the table by
	// the input that carries it.
	entries := r.Count()
	if entries > r.Remaining()/(size+1) {
		return nil, fmt.Errorf("core: audit cache body too short for %d entries", entries)
	}
	if n > entries {
		return nil, fmt.Errorf("core: audit cache body records %d entries, not %d", entries, n)
	}
	rec := &recording{size: size, chain: r.Raw(entries * size), cum: make([]int, entries)}
	through := 0
	for i := range rec.cum {
		// A step occupies a byte or more further on, so Count bounds this too.
		through += r.Count()
		rec.cum[i] = through
	}
	if nsteps := r.Count(); r.Err() != nil || nsteps != through {
		return nil, fmt.Errorf("core: audit cache body does not count its steps")
	}
	play := 0
	if n > 0 {
		play = rec.cum[n-1]
	}
	rec.steps = make([][]types.Output, 0, play)
	for i := 0; i < play; i++ {
		var outs []types.Output
		nouts := r.Count()
		for j := 0; j < nouts; j++ {
			var out types.Output
			if err := unmarshalOutput(r, &out); err != nil {
				return nil, err
			}
			outs = append(outs, out)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		rec.steps = append(rec.steps, outs)
	}
	if n < entries {
		return rec, nil // the rest is for a longer walk to read
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rec, nil
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
