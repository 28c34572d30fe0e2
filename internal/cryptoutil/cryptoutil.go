// Package cryptoutil provides the cryptographic primitives SNooPy relies on
// (paper §5.2, assumptions 2–3): per-node keypairs whose signatures cannot be
// forged, and a collision-resistant hash used for the tamper-evident log's
// hash chain.
//
// The one suite is Ed25519SHA256: Ed25519 signatures over SHA-256 hash
// chains. The paper's evaluation (§7.1) used 1,024-bit RSA and SHA-1, so
// signature, authenticator and acknowledgment sizes here differ from the
// published ones; every protocol step is the same under either.
//
// Key generation is deterministic given a seed so that experiments are
// reproducible; this stands in for the paper's offline CA that installs a
// certificate on each node.
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Suite bundles a hash function and a signature scheme.
type Suite interface {
	// Name identifies the suite in experiment output.
	Name() string
	// Hash returns the digest of the concatenation of the given byte slices.
	Hash(parts ...[]byte) []byte
	// HashSize returns the digest length in bytes.
	HashSize() int
	// GenerateKey deterministically derives a keypair from seed.
	GenerateKey(seed int64) (PrivateKey, error)
}

// PrivateKey signs messages on behalf of one node.
type PrivateKey interface {
	Sign(msg []byte) ([]byte, error)
	Public() PublicKey
}

// PublicKey verifies signatures.
type PublicKey interface {
	Verify(msg, sig []byte) bool
	// Marshal returns a stable encoding of the key, suitable for
	// certificates and for identifying the key in logs.
	Marshal() []byte
}

// ---------------------------------------------------------------------------
// Deterministic randomness for key generation.

// detReader is a deterministic io.Reader derived from a seed, implemented as
// SHA-256 in counter mode. It exists only so experiments are reproducible.
type detReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newDetReader(domain string, seed int64) *detReader {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	return &detReader{seed: sha256.Sum256(append([]byte(domain), b[:]...))}
}

func (d *detReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(d.buf) == 0 {
			var ctr [8]byte
			binary.BigEndian.PutUint64(ctr[:], d.ctr)
			d.ctr++
			block := sha256.Sum256(append(d.seed[:], ctr[:]...))
			d.buf = block[:]
		}
		c := copy(p[n:], d.buf)
		d.buf = d.buf[c:]
		n += c
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Ed25519 / SHA-256 suite.

type ed25519Suite struct{}

// Ed25519SHA256 is the suite every node and auditor uses.
var Ed25519SHA256 Suite = ed25519Suite{}

func (ed25519Suite) Name() string { return "ed25519-sha256" }

func (ed25519Suite) Hash(parts ...[]byte) []byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

func (ed25519Suite) HashSize() int { return sha256.Size }

func (ed25519Suite) GenerateKey(seed int64) (PrivateKey, error) {
	var seedBytes [ed25519.SeedSize]byte
	r := newDetReader("snp-ed25519", seed)
	if _, err := r.Read(seedBytes[:]); err != nil {
		return nil, err
	}
	key := ed25519.NewKeyFromSeed(seedBytes[:])
	return ed25519Key{key}, nil
}

type ed25519Key struct{ key ed25519.PrivateKey }

func (k ed25519Key) Sign(msg []byte) ([]byte, error) {
	return ed25519.Sign(k.key, msg), nil
}

func (k ed25519Key) Public() PublicKey {
	return ed25519Pub{k.key.Public().(ed25519.PublicKey)}
}

type ed25519Pub struct{ key ed25519.PublicKey }

func (p ed25519Pub) Verify(msg, sig []byte) bool {
	return ed25519.Verify(p.key, msg, sig)
}

func (p ed25519Pub) Marshal() []byte { return append([]byte(nil), p.key...) }

// ---------------------------------------------------------------------------
// Shared key pools.
//
// Experiments deploy hundreds of nodes, many times over in one process; they
// derive each node's key once and reuse it from a process-wide pool.

var keyPool sync.Map // poolKey -> PrivateKey

type poolKey struct {
	suite string
	seed  int64
}

// PooledKey returns the deterministic key for (suite, seed), generating and
// caching it on first use.
func PooledKey(s Suite, seed int64) (PrivateKey, error) {
	k := poolKey{s.Name(), seed}
	if v, ok := keyPool.Load(k); ok {
		return v.(PrivateKey), nil
	}
	key, err := s.GenerateKey(seed)
	if err != nil {
		return nil, err
	}
	actual, _ := keyPool.LoadOrStore(k, key)
	return actual.(PrivateKey), nil
}

// ---------------------------------------------------------------------------
// Verification cache.
//
// SNP re-verifies the same commitments many times: a signature checked when
// an envelope arrives is checked again for every audit that replays the
// receiver's log, and authenticators are re-verified on every ack round and
// segment audit. Signature verification is pure, so the result can be
// memoized on (public key, signed material, signature). The cache stores
// only booleans; it cannot change any outcome, only skip repeat work.
//
// A verification can also be reserved ahead of its caller (Reserve; the
// simulator reserves each in-flight commitment when the packet is sent). The
// triple enters the busy set before Reserve returns, so a later Verify of it
// finds it cached or busy, never absent, and counts a hit whichever goroutine
// finishes first: hit counts stay a function of the call sequence alone. A
// reserved triple nobody asks about costs one wasted check, nothing else.

// verifyCacheMaxEntries bounds cache memory; the cache is reset (not LRU
// evicted) when full, which keeps the fast path branch-free.
const verifyCacheMaxEntries = 1 << 20

// VerifyCache memoizes signature-verification results. The zero value is not
// usable; use NewVerifyCache. All methods are safe for concurrent use.
type VerifyCache struct {
	mu sync.RWMutex
	m  map[[sha256.Size]byte]bool
	// busy holds the triples being verified right now. A caller that finds
	// its triple here waits for that result and counts a hit, so hit counts
	// do not depend on how concurrent callers interleave.
	busy map[[sha256.Size]byte]struct{}
	done *sync.Cond // a verification finished; waits on mu
}

// NewVerifyCache returns an empty cache.
func NewVerifyCache() *VerifyCache {
	c := &VerifyCache{m: make(map[[sha256.Size]byte]bool), busy: make(map[[sha256.Size]byte]struct{})}
	c.done = sync.NewCond(&c.mu)
	return c
}

// DefaultVerifyCache is the process-wide cache used by seclog; nodes and
// auditors in one process share it, which is exactly the paper's audit
// pattern (the querier re-checks signatures the nodes checked at runtime).
var DefaultVerifyCache = NewVerifyCache()

// verifyCacheKey digests the (key, material, signature) triple into a fixed
// 32-byte map key: length-prefixed so distinct triples cannot collide by
// concatenation, and hashed so a full cache holds 33 bytes per entry rather
// than the raw inputs.
func verifyCacheKey(pub PublicKey, msg, sig []byte) [sha256.Size]byte {
	h := sha256.New()
	var n [4]byte
	p := pub.Marshal()
	binary.BigEndian.PutUint32(n[:], uint32(len(p)))
	h.Write(n[:])
	h.Write(p)
	binary.BigEndian.PutUint32(n[:], uint32(len(msg)))
	h.Write(n[:])
	h.Write(msg)
	h.Write(sig)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Verify checks sig over msg under pub, memoizing the result. A cache hit is
// recorded in stats (which may be nil); the caller remains responsible for
// counting the *logical* verification via Stats.CountVerify, so operation
// counts (Figure 7) are identical with and without the cache.
func (c *VerifyCache) Verify(stats *Stats, pub PublicKey, msg, sig []byte) bool {
	k := verifyCacheKey(pub, msg, sig)
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		stats.CountVerifyCacheHit()
		return v
	}
	c.mu.Lock()
	for {
		if v, ok = c.m[k]; ok {
			c.mu.Unlock()
			stats.CountVerifyCacheHit()
			return v
		}
		if _, busy := c.busy[k]; !busy {
			break
		}
		c.done.Wait()
	}
	c.busy[k] = struct{}{}
	c.mu.Unlock()
	return c.finish(k, pub.Verify(msg, sig))
}

// finish publishes the result of the busy triple k and wakes its waiters.
func (c *VerifyCache) finish(k [sha256.Size]byte, v bool) bool {
	c.mu.Lock()
	if len(c.m) >= verifyCacheMaxEntries {
		c.m = make(map[[sha256.Size]byte]bool)
	}
	c.m[k] = v
	delete(c.busy, k)
	c.mu.Unlock()
	c.done.Broadcast()
	return v
}

// Reserve marks the triple busy now and returns the verification that
// settles it, for any goroutine to run; until it has run, Verify callers of
// the triple wait for it and count a hit. It returns nil when the triple is
// already cached or busy. The caller must run what Reserve returns, or its
// triple's Verify callers wait forever. msg and sig are copied.
func (c *VerifyCache) Reserve(pub PublicKey, msg, sig []byte) func() {
	k := verifyCacheKey(pub, msg, sig)
	c.mu.Lock()
	_, cached := c.m[k]
	_, busy := c.busy[k]
	if cached || busy {
		c.mu.Unlock()
		return nil
	}
	c.busy[k] = struct{}{}
	c.mu.Unlock()
	msg, sig = append([]byte(nil), msg...), append([]byte(nil), sig...)
	return func() { c.finish(k, pub.Verify(msg, sig)) }
}

// Reset empties the cache (tests and long-lived processes).
func (c *VerifyCache) Reset() {
	c.mu.Lock()
	c.m = make(map[[sha256.Size]byte]bool)
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Operation accounting (used by the evaluation harness for Figure 7).

// Stats counts cryptographic operations performed by one node. All methods
// are safe for concurrent use. Verifies counts logical verifications —
// every signature check the protocol calls for — while VerifyCacheHits
// counts the subset answered from the verification cache without touching
// the CPU; Verifies-VerifyCacheHits is the number of actual public-key
// operations performed.
type Stats struct {
	Signs           atomic.Uint64
	Verifies        atomic.Uint64
	VerifyCacheHits atomic.Uint64
	Hashes          atomic.Uint64
	HashedBytes     atomic.Uint64
}

// CountSign records one signature generation.
func (s *Stats) CountSign() {
	if s != nil {
		s.Signs.Add(1)
	}
}

// CountVerify records one logical signature verification.
func (s *Stats) CountVerify() {
	if s != nil {
		s.Verifies.Add(1)
	}
}

// CountVerifyCacheHit records one verification answered from the cache.
func (s *Stats) CountVerifyCacheHit() {
	if s != nil {
		s.VerifyCacheHits.Add(1)
	}
}

// CountHash records one hash computation over n bytes.
func (s *Stats) CountHash(n int) {
	if s != nil {
		s.Hashes.Add(1)
		s.HashedBytes.Add(uint64(n))
	}
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Signs:           s.Signs.Load(),
		Verifies:        s.Verifies.Load(),
		VerifyCacheHits: s.VerifyCacheHits.Load(),
		Hashes:          s.Hashes.Load(),
		HashedBytes:     s.HashedBytes.Load(),
	}
}

// StatsSnapshot is an immutable copy of Stats.
type StatsSnapshot struct {
	Signs           uint64
	Verifies        uint64
	VerifyCacheHits uint64
	Hashes          uint64
	HashedBytes     uint64
}

// Add returns the element-wise sum of two snapshots.
func (a StatsSnapshot) Add(b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Signs:           a.Signs + b.Signs,
		Verifies:        a.Verifies + b.Verifies,
		VerifyCacheHits: a.VerifyCacheHits + b.VerifyCacheHits,
		Hashes:          a.Hashes + b.Hashes,
		HashedBytes:     a.HashedBytes + b.HashedBytes,
	}
}
