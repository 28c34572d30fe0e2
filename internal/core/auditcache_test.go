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

// countMachine is a deterministic machine with real state, so the cached
// final snapshot actually carries information: inserts accumulate into sum
// and fire a send to the peer, receives accumulate separately.
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

// preparedImage canonicalizes a PreparedAudit for bit-identity comparison:
// the serialized op stream, the machine's final snapshot, and the end time.
func preparedImage(p *PreparedAudit) []byte {
	var snap []byte
	if p.machine != nil {
		snap = p.machine.Snapshot()
	}
	return encodeAuditBody(p.machine != nil, snap, p.endTime, p.ops)
}

// TestAuditCacheHitBitIdentical pins the hard rule: a cache hit must be
// bit-identical to a fresh replay — same op stream (events, outputs, seeds,
// implied commitments), same machine state, same bookkeeping.
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
		if !bytes.Equal(preparedImage(pb), preparedImage(pc)) || !bytes.Equal(preparedImage(pb), preparedImage(pw)) {
			t.Fatalf("%s: prepared audits diverge across cache states", id)
		}
		if !reflect.DeepEqual(pb.ops, pw.ops) {
			t.Fatalf("%s: cached op stream is not deeply identical", id)
		}
		if !reflect.DeepEqual(pb.audited.sent, pw.audited.sent) {
			t.Fatalf("%s: sent-envelope map diverges on cache hit", id)
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

// TestAuditCachePersists proves a reopened cache serves the entries the
// first handle put, and that open clears what a crashed put left behind.
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
	// A put that crashed before its rename leaves its temp file behind.
	crashed := filepath.Join(cacheDir, "put-crashed"+auditCacheTmp)
	if err := os.WriteFile(crashed, []byte("half a body"), 0o600); err != nil {
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

// TestAuditCachePoisonedNoFalseAccusation is the hostile-cache matrix: an
// attacker who can rewrite the cache files must never be able to make the
// auditor accuse an honest node. Structural poison is detected and falls
// back to a fresh replay with a bit-identical result; semantically valid
// poison of the machine outputs is the worst case and still yields zero
// failures, because every accusation-capable op is re-derived from the
// verified segment.
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

	seed := NewAuditor(ccfg, dir, factory, nil)
	baseline := make(map[types.NodeID][]byte)
	keys := make(map[types.NodeID][]byte)
	raw0 := make(map[types.NodeID][]byte) // the files as a clean replay writes them
	for id, n := range nodes {
		p := seed.Prepare(id, resps[id], evidenceFor(t, n))
		if p.err != nil {
			t.Fatal(p.err)
		}
		baseline[id] = preparedImage(p)
		seg := resps[id].Segment
		hashes := p.audited.hashes
		keys[id] = cache.key(id, seg.From, seg.To(), hashes[seg.To()])
		raw, err := os.ReadFile(cache.path(keys[id]))
		if err != nil {
			t.Fatal(err)
		}
		raw0[id] = raw
	}

	poisons := []struct {
		name   string
		mutate func(ca *cachedAudit)
	}{
		{"truncated op stream", func(ca *cachedAudit) { ca.ops = ca.ops[:len(ca.ops)-1] }},
		{"extra op", func(ca *cachedAudit) { ca.ops = append(ca.ops, replayOp{kind: opEvent}) }},
		{"wrong end time", func(ca *cachedAudit) { ca.endTime++ }},
		{"implied commitment retargeted", func(ca *cachedAudit) {
			for i := range ca.ops {
				if ca.ops[i].kind == opImplied {
					ca.ops[i].commit.seq += 5 // vouch for a position the peer never signed
					return
				}
			}
		}},
		{"implied hash forged", func(ca *cachedAudit) {
			for i := range ca.ops {
				if ca.ops[i].kind == opImplied {
					ca.ops[i].commit.hash[0] ^= 0xff
					return
				}
			}
		}},
		{"machine outputs forged", func(ca *cachedAudit) {
			for i := range ca.ops {
				if ca.ops[i].kind == opEvent && len(ca.ops[i].outs) > 0 {
					ca.ops[i].outs[0].Tuple = types.MakeTuple("forged", types.N("n2"))
					return
				}
			}
		}},
		{"snapshot forged", func(ca *cachedAudit) { ca.snapshot = []byte{0xde, 0xad} }},
	}
	for _, tc := range poisons {
		t.Run(tc.name, func(t *testing.T) {
			for id, n := range nodes {
				body, ok := cache.get(keys[id])
				if !ok {
					t.Fatalf("no cached body for %s", id)
				}
				ca, err := decodeAuditBody(body)
				if err != nil {
					t.Fatal(err)
				}
				tc.mutate(ca)
				cache.put(keys[id], encodeAuditBody(ca.hadMachine, ca.snapshot, ca.endTime, ca.ops))

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
				if tc.name != "machine outputs forged" && tc.name != "snapshot forged" {
					// Structural poison must be rejected outright and the
					// fresh fallback must reproduce the baseline exactly.
					if !bytes.Equal(preparedImage(p), baseline[id]) {
						t.Errorf("%s: fallback result diverges from baseline", id)
					}
				}
				// Heal the entry for the next subtest.
				a2 := NewAuditor(ccfg, dir, factory, nil)
				if p2 := a2.Prepare(id, resps[id], evidenceFor(t, n)); p2.err != nil {
					t.Fatal(p2.err)
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
			raw, err := os.ReadFile(cache.path(keys[other[id]]))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}},
	}
	for _, tc := range damages {
		t.Run(tc.name, func(t *testing.T) {
			for id, n := range nodes {
				raw, err := os.ReadFile(cache.path(keys[id]))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(cache.path(keys[id]), tc.damage(id, raw), 0o600); err != nil {
					t.Fatal(err)
				}
				hits, misses := cache.Hits(), cache.Misses()
				a := NewAuditor(ccfg, dir, factory, nil)
				p := a.Prepare(id, resps[id], evidenceFor(t, n))
				if p.err != nil {
					t.Fatalf("%s: prepare error on damaged file: %v", id, p.err)
				}
				if !bytes.Equal(preparedImage(p), baseline[id]) {
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
				healed, err := os.ReadFile(cache.path(keys[id]))
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
