package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// countMachine is a deterministic machine with real state, so that the
// mid-segment checkpoint comparison has something to compare: inserts
// accumulate into sum and fire a send to the peer, receives accumulate
// separately.
type countMachine struct {
	self, peer types.NodeID
	seq        uint64
	sum        int64
}

func (m *countMachine) Step(ev types.Event) []types.Output {
	switch ev.Kind {
	case types.EvIns:
		m.sum += int64(len(ev.Tuple.Rel))
		m.seq++
		return []types.Output{{Kind: types.OutSend, Msg: &types.Message{
			Src: m.self, Dst: m.peer, Pol: types.PolAppear, Tuple: ev.Tuple,
			SendTime: ev.Time, Seq: m.seq,
		}}}
	case types.EvRcv:
		if ev.Msg != nil {
			m.sum += 7
		}
	}
	return nil
}

func (m *countMachine) Snapshot() []byte {
	w := wire.NewWriter(16)
	w.Uint(m.seq)
	w.Int(m.sum)
	return w.Bytes()
}

func (m *countMachine) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	m.seq = r.Uint()
	m.sum = r.Int()
	return r.Finish()
}

// pipe delivers packets synchronously between two nodes.
type pipe struct{ nodes map[types.NodeID]*Node }

func (p *pipe) Send(from, to types.NodeID, pkt *Packet) {
	if n := p.nodes[to]; n != nil {
		_ = n.HandlePacket(from, pkt)
	}
}

// cachePair builds two talking nodes with some history: inserts on both, a
// mid-stream checkpoint on n1, and the rcv/ack traffic the sends provoke.
func cachePair(t *testing.T, cfg Config) (map[types.NodeID]*Node, *Directory, types.MachineFactory) {
	t.Helper()
	dir := NewDirectory()
	pp := &pipe{nodes: make(map[types.NodeID]*Node)}
	other := map[types.NodeID]types.NodeID{"n1": "n2", "n2": "n1"}
	factory := func(self types.NodeID) types.Machine {
		return &countMachine{self: self, peer: other[self]}
	}
	for i, id := range []types.NodeID{"n1", "n2"} {
		key, err := cryptoutil.PooledKey(cfg.suite(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		dir.Register(id, key.Public())
		n, err := NewNode(id, cfg, key, dir, NewMaintainer(), &fixedClock{}, pp, factory(id))
		if err != nil {
			t.Fatal(err)
		}
		pp.nodes[id] = n
	}
	n1, n2 := pp.nodes["n1"], pp.nodes["n2"]
	for i := int64(1); i <= 6; i++ {
		if err := n1.InsertBase(ins(i)); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			n1.WriteCheckpoint()
		}
		if err := n2.InsertBase(types.MakeTuple("u", types.N("n2"), types.I(i))); err != nil {
			t.Fatal(err)
		}
		_ = n1.Tick()
		_ = n2.Tick()
	}
	return pp.nodes, dir, factory
}

func retrieveAll(t *testing.T, nodes map[types.NodeID]*Node) map[types.NodeID]*RetrieveResponse {
	t.Helper()
	resps := make(map[types.NodeID]*RetrieveResponse)
	for id, n := range nodes {
		resp, err := n.HandleRetrieve(RetrieveRequest{Auth: seclog.Authenticator{Node: id, Seq: n.Log.Len()}})
		if err != nil {
			t.Fatalf("retrieve %s: %v", id, err)
		}
		resps[id] = resp
	}
	return resps
}

func evidenceFor(t *testing.T, n *Node) seclog.Authenticator {
	t.Helper()
	auth, err := n.LatestAuth()
	if err != nil {
		t.Fatal(err)
	}
	return auth
}

// samePrepared reports whether two prepared audits would commit identically:
// the same op stream (events, machine outputs, seeds, implied commitments,
// failures), the same chain and sent-envelope bookkeeping, the same end time.
func samePrepared(p, q *PreparedAudit) bool {
	return reflect.DeepEqual(p.ops, q.ops) && reflect.DeepEqual(p.audited, q.audited) && p.endTime == q.endTime
}

// TestAuditCacheHitBitIdentical pins the hard rule: a cache hit must be
// bit-identical to a fresh replay — same op stream (events, outputs, seeds,
// implied commitments), same bookkeeping.
func TestAuditCacheHitBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	resps := retrieveAll(t, nodes)

	cache, err := OpenAuditCache(t.TempDir(), cfg.suite())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	base := NewAuditor(cfg, dir, factory, nil) // no cache: ground truth
	ccfg := cfg
	ccfg.AuditCache = cache
	cold := NewAuditor(ccfg, dir, factory, nil)
	warm := NewAuditor(ccfg, dir, factory, nil)

	sawImplied := false
	for id, n := range nodes {
		ev := evidenceFor(t, n)
		pb := base.Prepare(id, resps[id], ev)
		pc := cold.Prepare(id, resps[id], ev) // populates the cache
		pw := warm.Prepare(id, resps[id], ev) // must hit
		if pb.err != nil || pc.err != nil || pw.err != nil {
			t.Fatalf("%s: prepare errors %v/%v/%v", id, pb.err, pc.err, pw.err)
		}
		if !samePrepared(pb, pc) {
			t.Fatalf("%s: a miss diverges from an uncached replay", id)
		}
		if !samePrepared(pc, pw) {
			t.Fatalf("%s: a hit diverges from the miss that recorded it", id)
		}
		for i := range pb.ops {
			if pb.ops[i].kind == opImplied {
				sawImplied = true
			}
		}
		if err := base.Commit(pb); err != nil {
			t.Fatal(err)
		}
		if err := warm.Commit(pw); err != nil {
			t.Fatal(err)
		}
	}
	if !sawImplied {
		t.Fatal("fixture produced no implied commitments; the test lost its teeth")
	}
	if cache.Hits() != uint64(len(nodes)) || cache.Misses() != uint64(len(nodes)) {
		t.Fatalf("hits=%d misses=%d, want %d/%d", cache.Hits(), cache.Misses(), len(nodes), len(nodes))
	}
	if len(base.Failures()) != 0 || len(warm.Failures()) != 0 {
		t.Fatalf("honest audit recorded failures: %v / %v", base.Failures(), warm.Failures())
	}
	if !reflect.DeepEqual(base.endTimes, warm.endTimes) {
		t.Fatal("end times diverge on cache hit")
	}
}

// TestAuditCacheHitBuildsNoMachine: the replica machine is what a hit
// saves. A cold Prepare builds one per node, a warm one none at all — not
// even to restore a checkpoint into.
func TestAuditCacheHitBuildsNoMachine(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	resps := retrieveAll(t, nodes)
	cache, err := OpenAuditCache(t.TempDir(), cfg.suite())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cfg.AuditCache = cache

	built := 0
	counting := func(self types.NodeID) types.Machine {
		built++
		return factory(self)
	}
	for _, want := range []int{len(nodes), 0} {
		built = 0
		a := NewAuditor(cfg, dir, counting, nil)
		for id, n := range nodes {
			p := a.Prepare(id, resps[id], evidenceFor(t, n))
			if p.err != nil {
				t.Fatal(p.err)
			}
			if err := a.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		if built != want {
			t.Fatalf("machines built = %d, want %d (hits=%d misses=%d)", built, want, cache.Hits(), cache.Misses())
		}
	}
}

// TestAuditCachePersists proves a reopened cache serves the entries the
// first handle put, and that open clears what a crashed put or an older
// format left behind.
func TestAuditCachePersists(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	resps := retrieveAll(t, nodes)
	cacheDir := t.TempDir()

	cache, err := OpenAuditCache(cacheDir, cfg.suite())
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.AuditCache = cache
	a1 := NewAuditor(ccfg, dir, factory, nil)
	for id, n := range nodes {
		if p := a1.Prepare(id, resps[id], evidenceFor(t, n)); p.err != nil {
			t.Fatal(p.err)
		}
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	// A put that crashed before its rename leaves its temp file behind, and
	// a version 1 cache left bodies no version 2 key will ever name.
	crashed := filepath.Join(cacheDir, "put-crashed"+auditCacheTmp)
	if err := os.WriteFile(crashed, []byte("half a body"), 0o600); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(cacheDir, "00ff"+auditCacheExt) // H(body) || body, named by the key alone
	if err := os.WriteFile(stale, append(cfg.suite().Hash(v1AuditBody), v1AuditBody...), 0o600); err != nil {
		t.Fatal(err)
	}

	cache2, err := OpenAuditCache(cacheDir, cfg.suite())
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	if _, err := os.Stat(crashed); !os.IsNotExist(err) {
		t.Fatalf("temp file of a crashed put survived open (stat err=%v)", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("version 1 body survived open (stat err=%v)", err)
	}
	ccfg.AuditCache = cache2
	a2 := NewAuditor(ccfg, dir, factory, nil)
	for id, n := range nodes {
		if p := a2.Prepare(id, resps[id], evidenceFor(t, n)); p.err != nil {
			t.Fatal(p.err)
		}
	}
	if cache2.Hits() != uint64(len(nodes)) || cache2.Misses() != 0 {
		t.Fatalf("reopened cache: hits=%d misses=%d, want %d/0", cache2.Hits(), cache2.Misses(), len(nodes))
	}
}

// TestAuditCacheInvalidatedOnDivergence: growing the log changes the head
// chain hash, so the old entry's key no longer matches — the audit replays
// fresh and caches the new segment.
func TestAuditCacheInvalidatedOnDivergence(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	resps := retrieveAll(t, nodes)

	cache, err := OpenAuditCache(t.TempDir(), cfg.suite())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	ccfg := cfg
	ccfg.AuditCache = cache
	a1 := NewAuditor(ccfg, dir, factory, nil)
	n1 := nodes["n1"]
	if p := a1.Prepare("n1", resps["n1"], evidenceFor(t, n1)); p.err != nil {
		t.Fatal(p.err)
	}

	// The node keeps living; the next audit sees a longer chain.
	if err := n1.InsertBase(ins(100)); err != nil {
		t.Fatal(err)
	}
	resp, err := n1.HandleRetrieve(RetrieveRequest{Auth: seclog.Authenticator{Node: "n1", Seq: n1.Log.Len()}})
	if err != nil {
		t.Fatal(err)
	}
	a2 := NewAuditor(ccfg, dir, factory, nil)
	p := a2.Prepare("n1", resp, evidenceFor(t, n1))
	if p.err != nil {
		t.Fatal(p.err)
	}
	if cache.Hits() != 0 {
		t.Fatalf("stale entry served as a hit (hits=%d)", cache.Hits())
	}
	if err := a2.Commit(p); err != nil {
		t.Fatal(err)
	}
	if len(a2.Failures()) != 0 {
		t.Fatalf("honest divergent audit recorded failures: %v", a2.Failures())
	}
}

// TestAuditCacheDropsSupersededEntries: a log grows at its head, so each
// audit of a longer prefix replaces the entry of the shorter one — and only
// that one.
func TestAuditCacheDropsSupersededEntries(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	cache, err := OpenAuditCache(t.TempDir(), cfg.suite())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cfg.AuditCache = cache
	entries := func(series string) []string {
		names, err := filepath.Glob(filepath.Join(cache.dir, series+"*"+auditCacheExt))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	// Neither another start of n1's nor another node's is n1's to drop.
	bystanders := []string{"n1.2.1.00" + auditCacheExt, "n10.1.1.00" + auditCacheExt}
	for _, name := range bystanders {
		if err := os.WriteFile(filepath.Join(cache.dir, name), nil, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	n1 := nodes["n1"]
	for head := int64(0); head < 5; head++ {
		if err := n1.InsertBase(ins(100 + head)); err != nil {
			t.Fatal(err)
		}
		a := NewAuditor(cfg, dir, factory, nil)
		for id, n := range retrieveAll(t, nodes) {
			if p := a.Prepare(id, n, evidenceFor(t, nodes[id])); p.err != nil {
				t.Fatal(p.err)
			}
		}
		if got := entries("n1.1."); len(got) != 1 {
			t.Fatalf("head %d: n1 has entries %v, want one", head, got)
		}
	}
	for _, name := range bystanders {
		if _, err := os.Stat(filepath.Join(cache.dir, name)); err != nil {
			t.Fatalf("a put removed %s: %v", name, err)
		}
	}
	// n1's inserts reach n2, whose log grew five times as well.
	if got := entries("n2.1."); len(got) != 1 {
		t.Fatalf("n2 has entries %v, want one", got)
	}
	if got, want := cache.Misses(), uint64(2*5); got != want {
		t.Fatalf("misses = %d, want %d: every head is a new segment", got, want)
	}
}

// TestAuditCachePoisonedNoFalseAccusation is the hostile-cache matrix: an
// attacker who can rewrite the cache files must never be able to make the
// auditor accuse an honest node. A recording that does not fit the walk is
// detected and falls back to a fresh replay with a bit-identical result;
// one that fits but lies about the machine's outputs is the worst case and
// still yields zero failures, because nothing accusation-capable is read
// from disk.
func TestAuditCachePoisonedNoFalseAccusation(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	resps := retrieveAll(t, nodes)

	cache, err := OpenAuditCache(t.TempDir(), cfg.suite())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	ccfg := cfg
	ccfg.AuditCache = cache
	path := func(key string) string { return filepath.Join(cache.dir, key) }

	seed := NewAuditor(ccfg, dir, factory, nil)
	baseline := make(map[types.NodeID]*PreparedAudit)
	keys := make(map[types.NodeID]string)
	raw0 := make(map[types.NodeID][]byte) // the files as a clean replay writes them
	for id, n := range nodes {
		p := seed.Prepare(id, resps[id], evidenceFor(t, n))
		if p.err != nil {
			t.Fatal(p.err)
		}
		baseline[id] = p
		seg := resps[id].Segment
		keys[id] = cache.key(id, seg.From, seg.To(), p.audited.hashAt(seg.To()))
		raw, err := os.ReadFile(path(keys[id]))
		if err != nil {
			t.Fatal(err)
		}
		raw0[id] = raw
	}

	poisons := []struct {
		name   string
		fits   bool // the walk consumes the recording exactly: served as a hit
		mutate func(rec *recording)
	}{
		{"machine outputs forged", true, func(rec *recording) {
			for i := range rec.steps {
				if len(rec.steps[i]) > 0 {
					rec.steps[i][0].Tuple = types.MakeTuple("forged", types.N("n2"))
					return
				}
			}
		}},
		{"recording one step short", false, func(rec *recording) { rec.steps = rec.steps[:len(rec.steps)-1] }},
		{"recording one step long", false, func(rec *recording) { rec.steps = append(rec.steps, nil) }},
	}
	for _, tc := range poisons {
		t.Run(tc.name, func(t *testing.T) {
			for id, n := range nodes {
				rec := cache.recording(keys[id])
				if rec == nil {
					t.Fatalf("no cached recording for %s", id)
				}
				tc.mutate(rec)
				cache.put(keys[id], rec.encode())

				hits := cache.Hits()
				a := NewAuditor(ccfg, dir, factory, nil)
				p := a.Prepare(id, resps[id], evidenceFor(t, n))
				if p.err != nil {
					t.Fatalf("%s: prepare error on poisoned cache: %v", id, p.err)
				}
				if err := a.Commit(p); err != nil {
					t.Fatal(err)
				}
				for _, f := range a.Failures() {
					t.Errorf("%s: poisoned cache produced an accusation: %v", id, f)
				}
				if hit := cache.Hits() == hits+1; hit != tc.fits {
					t.Errorf("%s: served as a hit = %v, want %v", id, hit, tc.fits)
				}
				if !tc.fits {
					// A recording of some other walk must be rejected outright
					// and the fresh fallback must reproduce the baseline exactly
					// and heal the entry.
					if !samePrepared(p, baseline[id]) {
						t.Errorf("%s: fallback result diverges from baseline", id)
					}
					if healed, err := os.ReadFile(path(keys[id])); err != nil || !bytes.Equal(healed, raw0[id]) {
						t.Errorf("%s: entry not healed (err=%v)", id, err)
					}
				}
				// Heal the entry for the next subtest.
				if err := os.WriteFile(path(keys[id]), raw0[id], 0o600); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	// Damage to the files themselves. Each must cost exactly one miss: a
	// fresh replay equal to the baseline, no failure against the honest
	// node, and a healed entry that the next audit hits.
	other := map[types.NodeID]types.NodeID{"n1": "n2", "n2": "n1"}
	hs := cfg.suite().HashSize()
	damages := []struct {
		name   string
		damage func(id types.NodeID, raw []byte) []byte
	}{
		{"zero-length file", func(types.NodeID, []byte) []byte { return nil }},
		{"truncated mid-body", func(_ types.NodeID, raw []byte) []byte { return raw[:hs+(len(raw)-hs)/2] }},
		{"one flipped bit", func(_ types.NodeID, raw []byte) []byte {
			raw[hs+(len(raw)-hs)/2] ^= 0x01
			return raw
		}},
		{"no integrity prefix", func(_ types.NodeID, raw []byte) []byte { return raw[hs:] }},
		{"body of another segment's key", func(id types.NodeID, _ []byte) []byte {
			raw, err := os.ReadFile(path(keys[other[id]]))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}},
		{"version 1 body", func(id types.NodeID, _ []byte) []byte {
			return append(cfg.suite().Hash([]byte(keys[id]), v1AuditBody), v1AuditBody...)
		}},
	}
	for _, tc := range damages {
		t.Run(tc.name, func(t *testing.T) {
			for id, n := range nodes {
				raw, err := os.ReadFile(path(keys[id]))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path(keys[id]), tc.damage(id, raw), 0o600); err != nil {
					t.Fatal(err)
				}
				hits, misses := cache.Hits(), cache.Misses()
				a := NewAuditor(ccfg, dir, factory, nil)
				p := a.Prepare(id, resps[id], evidenceFor(t, n))
				if p.err != nil {
					t.Fatalf("%s: prepare error on damaged file: %v", id, p.err)
				}
				if !samePrepared(p, baseline[id]) {
					t.Errorf("%s: fallback result diverges from baseline", id)
				}
				if err := a.Commit(p); err != nil {
					t.Fatal(err)
				}
				if len(a.Failures()) != 0 {
					t.Errorf("%s: damaged file produced accusations: %v", id, a.Failures())
				}
				if cache.Hits() != hits || cache.Misses() != misses+1 {
					t.Errorf("%s: hits %d→%d misses %d→%d, want one miss", id, hits, cache.Hits(), misses, cache.Misses())
				}
				healed, err := os.ReadFile(path(keys[id]))
				if err != nil || !bytes.Equal(healed, raw0[id]) {
					t.Errorf("%s: entry not healed (err=%v)", id, err)
				}
				a2 := NewAuditor(ccfg, dir, factory, nil)
				if p2 := a2.Prepare(id, resps[id], evidenceFor(t, n)); p2.err != nil || cache.Hits() != hits+1 {
					t.Errorf("%s: healed entry not served (err=%v, hits=%d)", id, p2.err, cache.Hits())
				}
			}
		})
	}
}

// TestAuditCacheNeverCachesFailures: a replay that records evidence must
// not be cached, so the evidence is re-derived (and re-reported) on every
// audit rather than replayed from disk.
func TestAuditCacheNeverCachesFailures(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	resps := retrieveAll(t, nodes)

	cache, err := OpenAuditCache(t.TempDir(), cfg.suite())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	ccfg := cfg
	ccfg.AuditCache = cache

	// Tamper with n1's served segment: flip a byte in one entry so the
	// chain no longer matches the authenticator.
	resp := resps["n1"]
	tampered := *resp
	seg := *resp.Segment
	seg.Entries = append([]*seclog.Entry(nil), seg.Entries...)
	e := *seg.Entries[1]
	e.T++
	seg.Entries[1] = &e
	tampered.Segment = &seg

	a := NewAuditor(ccfg, dir, factory, nil)
	p := a.Prepare("n1", &tampered, evidenceFor(t, nodes["n1"]))
	if p.err == nil {
		t.Fatal("tampered segment verified")
	}
	if err := a.Commit(p); err == nil {
		t.Fatal("tampered segment committed without error")
	}
	if len(a.Failures()) == 0 {
		t.Fatal("tampered segment recorded no evidence")
	}
	if cache.Hits()+cache.Misses() != 0 {
		// The segment never verified, so the cache must not even have
		// been consulted (the key is derived from verified hashes).
		t.Fatalf("cache consulted for unverifiable segment (h=%d m=%d)", cache.Hits(), cache.Misses())
	}
}

// TestAuditCacheConcurrentPutGet: rename is the only commit point, so
// readers racing writers of one key see a whole body some writer put, never
// a torn one and never a missing file.
func TestAuditCacheConcurrentPutGet(t *testing.T) {
	cache, err := OpenAuditCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	key := cache.key("n1", 1, 9, []byte("head"))
	const writers, rounds = 8, 50
	bodies := make(map[string]bool)
	body := func(w int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("writer-%d ", w)), 1+w*700) }
	for w := 0; w < writers; w++ {
		bodies[string(body(w))] = true
	}
	cache.put(key, body(0))

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cache.put(key, body(w))
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, ok := cache.get(key)
				if !ok || !bodies[string(got)] {
					t.Errorf("get during concurrent puts: ok=%v len=%d, want a whole put body", ok, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if left, _ := filepath.Glob(filepath.Join(cache.dir, "*"+auditCacheTmp)); len(left) != 0 {
		t.Errorf("puts left temp files behind: %v", left)
	}
}
