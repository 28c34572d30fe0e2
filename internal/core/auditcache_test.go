package core

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/provgraph"
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
	return cachePairFrom(t, cfg, 1)
}

// cachePairFrom is cachePair with the inserted tuples numbered from first on:
// another first, other logs under the same names.
func cachePairFrom(t *testing.T, cfg Config, first int64) (map[types.NodeID]*Node, *Directory, types.MachineFactory) {
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
	for i := first; i < first+6; i++ {
		if err := n1.InsertBase(ins(i)); err != nil {
			t.Fatal(err)
		}
		if i == first+2 {
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

// wholeRecording decodes every step of the recording stored under key.
func wholeRecording(t *testing.T, cache *AuditCache, key string) *recording {
	t.Helper()
	body, ok := cache.get(key)
	if !ok {
		t.Fatalf("no cached recording under %s", key)
	}
	rec, err := decodeWhole(body, cache.suite.HashSize())
	if err != nil {
		t.Fatalf("recording under %s: %v", key, err)
	}
	return rec
}

// decodeWhole decodes every step of a body: its table says how many entries
// it records, and a walk of all of them plays all of it.
func decodeWhole(raw []byte, size int) (*recording, error) {
	table, err := decodeRecording(raw, size, 0)
	if err != nil {
		return nil, err
	}
	return decodeRecording(raw, size, len(table.cum))
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
	// the caches of versions 1 and 2 left bodies no version 3 key will ever
	// name.
	crashed := filepath.Join(cacheDir, "put-crashed"+auditCacheTmp)
	if err := os.WriteFile(crashed, []byte("half a body"), 0o600); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(cacheDir, "00ff"+auditCacheExt) // H(body) || body, named by the key alone
	if err := os.WriteFile(stale, append(cfg.suite().Hash(v1AuditBody), v1AuditBody...), 0o600); err != nil {
		t.Fatal(err)
	}
	stale2 := "n1.1.9.00ff" + auditCacheExt // H(name || body) || body, named by node, range and key
	if err := os.WriteFile(filepath.Join(cacheDir, stale2), append(cfg.suite().Hash([]byte(stale2), v2AuditBody), v2AuditBody...), 0o600); err != nil {
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
	if _, err := os.Stat(filepath.Join(cacheDir, stale2)); !os.IsNotExist(err) {
		t.Fatalf("version 2 body survived open (stat err=%v)", err)
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

// TestAuditCacheInvalidatedOnDivergence: a log that has grown is longer than
// the walk on record — the audit replays fresh and records the longer one.
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

// TestAuditCacheDropsSupersededEntries: a put leaves exactly one file per node
// and start of replay, whatever it supersedes — the recording of a shorter
// prefix of a log that has grown since, or the longer recording of a log that
// is gone (a deployment that reuses node names).
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
	auditAll := func(nodes map[types.NodeID]*Node, dir *Directory) {
		t.Helper()
		a := NewAuditor(cfg, dir, factory, nil)
		for id, n := range retrieveAll(t, nodes) {
			if p := a.Prepare(id, n, evidenceFor(t, nodes[id])); p.err != nil {
				t.Fatal(p.err)
			}
		}
	}

	// Neither another start of n1's nor another node's is n1's to drop.
	bystanders := []string{"n1.2" + auditCacheExt, "n10.1" + auditCacheExt}
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
		auditAll(nodes, dir)
		if got := entries("n1.1"); len(got) != 1 {
			t.Fatalf("head %d: n1 has entries %v, want one", head, got)
		}
	}
	for _, name := range bystanders {
		if _, err := os.Stat(filepath.Join(cache.dir, name)); err != nil {
			t.Fatalf("a put removed %s: %v", name, err)
		}
	}
	// n1's inserts reach n2, whose log grew five times as well.
	if got := entries("n2.1"); len(got) != 1 {
		t.Fatalf("n2 has entries %v, want one", got)
	}
	if got, want := cache.Misses(), uint64(2*5); got != want {
		t.Fatalf("misses = %d, want %d: every head is past the recording", got, want)
	}

	// The same names deployed again, with the history the first deployment had
	// before it grew: shorter logs on other chains. Their recordings take the
	// place of the longer ones, which no audit could ever hit again.
	long, err := os.ReadFile(entries("n1.1")[0])
	if err != nil {
		t.Fatal(err)
	}
	nodes2, dir2, _ := cachePairFrom(t, cfg, 50)
	auditAll(nodes2, dir2)
	if got, want := cache.Misses(), uint64(2*5+2); got != want {
		t.Fatalf("misses = %d, want %d: the redeployed logs are other logs", got, want)
	}
	for _, series := range []string{"n1.1", "n2.1"} {
		if got := entries(series); len(got) != 1 {
			t.Fatalf("after redeployment %s has entries %v, want one", series, got)
		}
	}
	if short, err := os.ReadFile(entries("n1.1")[0]); err != nil || len(short) >= len(long) {
		t.Fatalf("the stale longer recording of n1 survived (%d bytes, was %d; err=%v)", len(short), len(long), err)
	}
	hits := cache.Hits()
	auditAll(nodes2, dir2)
	if cache.Hits() != hits+2 {
		t.Fatalf("the redeployed logs' recordings are not served (hits %d → %d)", hits, cache.Hits())
	}
}

// pairFetcher serves a Querier's audits straight from cachePair's nodes.
type pairFetcher map[types.NodeID]*Node

func (f pairFetcher) Retrieve(id types.NodeID, req RetrieveRequest) (*RetrieveResponse, error) {
	return f[id].HandleRetrieve(req)
}
func (f pairFetcher) LatestAuth(id types.NodeID) (seclog.Authenticator, error) {
	return f[id].LatestAuth()
}
func (f pairFetcher) AuthsAbout(observer, target types.NodeID, t1, t2 types.Time) []seclog.Authenticator {
	return f[observer].AuthsAbout(target, t1, t2)
}
func (f pairFetcher) Nodes() []types.NodeID { return slices.Sorted(maps.Keys(f)) }

// firstSend returns the first recorded step with a send output, and the
// output's index in it.
func firstSend(rec *recording) (step, out int) {
	for i, outs := range rec.steps {
		for j := range outs {
			if outs[j].Kind == types.OutSend {
				return i, j
			}
		}
	}
	panic("recording has no send output")
}

// TestAuditCachePoisonedNoFalseAccusation is the hostile-cache matrix: an
// attacker who can rewrite the cache files must never be able to make the
// auditor accuse an honest node. A recording that does not fit the walk is
// detected and falls back to a fresh replay with a bit-identical result. One
// that fits but lies about the machine's outputs is served as a hit — nothing
// checks outputs against the log — and the forged sends among those color the
// honest node red, so the rule that recordings may confirm but never accuse
// must hold: the auditor says it played a recording, and the querier that
// asks again without the cache (Querier.ForgetRecordings) finds no failure
// and no red vertex.
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
		keys[id] = cache.key(id, seg.From)
		raw, err := os.ReadFile(path(keys[id]))
		if err != nil {
			t.Fatal(err)
		}
		raw0[id] = raw
	}

	poisons := []struct {
		name    string
		fits    bool // the walk consumes the recording exactly: served as a hit
		accuses bool // trusted, the outputs color the honest node red
		mutate  func(rec *recording)
	}{
		{"machine outputs forged", true, false, func(rec *recording) {
			for i := range rec.steps {
				if len(rec.steps[i]) > 0 {
					rec.steps[i][0].Tuple = types.MakeTuple("forged", types.N("n2"))
					return
				}
			}
		}},
		// Sends whose snd entries the log does not have, or lacks.
		{"send output added", true, true, func(rec *recording) {
			i, j := firstSend(rec)
			extra := rec.steps[i][j]
			msg := *extra.Msg
			msg.Seq += 1000
			extra.Msg = &msg
			rec.steps[i] = append(rec.steps[i], extra)
		}},
		{"send output dropped", true, true, func(rec *recording) {
			i, j := firstSend(rec)
			rec.steps[i] = slices.Delete(rec.steps[i], j, j+1)
		}},
		{"send re-addressed", true, true, func(rec *recording) {
			i, j := firstSend(rec)
			msg := *rec.steps[i][j].Msg
			msg.Dst = "n3"
			rec.steps[i][j].Msg = &msg
		}},
		// The entries count as many steps as the walk takes; the body holds
		// one fewer or one more, and says so.
		{"recording one step short", false, false, func(rec *recording) { rec.steps = rec.steps[:len(rec.steps)-1] }},
		{"recording one step long", false, false, func(rec *recording) { rec.steps = append(rec.steps, nil) }},
		// The body is consistent with itself and of some other walk.
		{"one step fewer recorded and counted", false, false, func(rec *recording) {
			rec.steps = rec.steps[:len(rec.steps)-1]
			rec.cum[len(rec.cum)-1]--
		}},
		{"one step more recorded and counted", false, false, func(rec *recording) {
			rec.steps = append(rec.steps, nil)
			rec.cum[len(rec.cum)-1]++
		}},
		{"one entry fewer recorded", false, false, func(rec *recording) {
			rec.cum = rec.cum[:len(rec.cum)-1]
			rec.chain = rec.chain[:len(rec.chain)-rec.size]
			rec.steps = rec.steps[:rec.cum[len(rec.cum)-1]]
		}},
		{"recorded head hash wrong", false, false, func(rec *recording) { rec.chain[len(rec.chain)-1] ^= 0x01 }},
		// What the table says of the entries before the last is for the walks
		// that stop there (TestAuditCacheAnswersPrefixes).
		{"recorded chain wrong below the head", true, false, func(rec *recording) { rec.chain[0] ^= 0x01 }},
	}
	// evidence is what an audit of id accuses id of, once finalized.
	evidence := func(a *Auditor) (failures []Failure, red []types.NodeID) {
		a.Finalize()
		return a.Failures(), a.Graph().HostsWithColor(provgraph.Red)
	}
	for _, tc := range poisons {
		t.Run(tc.name, func(t *testing.T) {
			for id, n := range nodes {
				rec := wholeRecording(t, cache, keys[id])
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
				if hit := cache.Hits() == hits+1; hit != tc.fits {
					t.Errorf("%s: served as a hit = %v, want %v", id, hit, tc.fits)
				}
				// The auditor itself trusts what the recording plays...
				failures, red := evidence(a)
				if accused := len(failures) != 0 || len(red) != 0; accused != tc.accuses {
					t.Errorf("%s: played recording accuses = %v (failures %v, red %v), want %v", id, accused, failures, red, tc.accuses)
				}
				// ...so an accusing answer is asked again without the cache.
				q := NewQuerier(a, pairFetcher(nodes))
				if len(failures) != 0 || len(red) != 0 {
					if !q.ForgetRecordings() {
						t.Fatalf("%s: an accusation from a replica: failures %v, red %v", id, failures, red)
					}
					if err := q.EnsureAudited(id, 0); err != nil {
						t.Fatal(err)
					}
					failures, red = evidence(q.Auditor)
				}
				if len(failures) != 0 || len(red) != 0 {
					t.Errorf("%s: poisoned cache produced an accusation: failures %v, red %v", id, failures, red)
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
		{"version 2 body", func(id types.NodeID, _ []byte) []byte {
			return append(cfg.suite().Hash([]byte(keys[id]), v2AuditBody), v2AuditBody...)
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
	key := cache.key("n1", 1)
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

// prefixesOf asks n for every prefix of its log a RetrieveRequest.EndTime can
// cut, shortest first; the last is the whole log.
func prefixesOf(t *testing.T, n *Node) []*RetrieveResponse {
	t.Helper()
	var out []*RetrieveResponse
	for seq := n.Log.FirstSeq(); seq <= n.Log.Len(); seq++ {
		e, err := n.Log.Entry(seq)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := n.HandleRetrieve(RetrieveRequest{Auth: seclog.Authenticator{Node: n.ID}, EndTime: e.T})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 || out[len(out)-1].Segment.To() != resp.Segment.To() {
			out = append(out, resp)
		}
	}
	if last := out[len(out)-1].Segment.To(); last != n.Log.Len() {
		t.Fatalf("longest prefix of %s ends at %d, log at %d", n.ID, last, n.Log.Len())
	}
	return out
}

// TestAuditCacheAnswersPrefixes: one recording answers every prefix of the
// walk it recorded, bit-identically to a fresh replay of that prefix and
// without a replica; a recording shorter than the walk is a miss that the
// longer one replaces; and what the table says about the entry a prefix stops
// at — its chain hash, the steps taken through it — decides a hit for that
// prefix alone, never an accusation.
func TestAuditCacheAnswersPrefixes(t *testing.T) {
	cfg := DefaultConfig()
	nodes, dir, factory := cachePair(t, cfg)
	for id, n := range nodes {
		prefixes := prefixesOf(t, n)
		if len(prefixes) < 4 {
			t.Fatalf("%s: %d prefixes; the test lost its teeth", id, len(prefixes))
		}
		evidence := seclog.Authenticator{Node: id}
		fresh := func(resp *RetrieveResponse) *PreparedAudit {
			p := NewAuditor(cfg, dir, factory, nil).Prepare(id, resp, evidence)
			if p.err != nil {
				t.Fatal(p.err)
			}
			return p
		}
		open := func() (*AuditCache, func(*RetrieveResponse) *PreparedAudit) {
			cache, err := OpenAuditCache(t.TempDir(), cfg.suite())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cache.Close() })
			ccfg := cfg
			ccfg.AuditCache = cache
			return cache, func(resp *RetrieveResponse) *PreparedAudit {
				built := 0
				counting := func(self types.NodeID) types.Machine { built++; return factory(self) }
				hits := cache.Hits()
				a := NewAuditor(ccfg, dir, counting, nil)
				p := a.Prepare(id, resp, evidence)
				if p.err != nil {
					t.Fatal(p.err)
				}
				if err := a.Commit(p); err != nil || len(a.Failures()) != 0 {
					t.Fatalf("%s through %d: commit %v, failures %v", id, resp.Segment.To(), err, a.Failures())
				}
				if !samePrepared(p, fresh(resp)) {
					t.Fatalf("%s through %d: cached audit diverges from a fresh replay", id, resp.Segment.To())
				}
				if hit := cache.Hits() == hits+1; hit != (built == 0) {
					t.Fatalf("%s through %d: hit=%v and %d machines built", id, resp.Segment.To(), hit, built)
				}
				return p
			}
		}
		key := func(c *AuditCache) string { return c.key(id, prefixes[0].Segment.From) }
		whole := prefixes[len(prefixes)-1]

		// Longest first: one miss, then every prefix is a hit.
		cache, audit := open()
		audit(whole)
		for _, resp := range prefixes {
			audit(resp)
		}
		if cache.Misses() != 1 || cache.Hits() != uint64(len(prefixes)) {
			t.Fatalf("%s: longest first: hits=%d misses=%d, want %d/1", id, cache.Hits(), cache.Misses(), len(prefixes))
		}

		// Shortest first: every walk is past the recording and replaces it.
		cache, audit = open()
		for _, resp := range prefixes {
			audit(resp)
		}
		if cache.Hits() != 0 || cache.Misses() != uint64(len(prefixes)) {
			t.Fatalf("%s: shortest first: hits=%d misses=%d, want 0/%d", id, cache.Hits(), cache.Misses(), len(prefixes))
		}
		if names, _ := filepath.Glob(filepath.Join(cache.dir, "*"+auditCacheExt)); len(names) != 1 {
			t.Fatalf("%s: shortest first left %v, want one file", id, names)
		}
		for _, resp := range prefixes {
			audit(resp)
		}
		if cache.Hits() != uint64(len(prefixes)) {
			t.Fatalf("%s: the longest recording served %d of %d prefixes", id, cache.Hits(), len(prefixes))
		}

		// A table that is wrong about one entry: a miss for the prefix that
		// stops there, which then puts its own recording; a hit, as harmless
		// as ever, for the others.
		// The entry is one that stepped the machine, before another that did:
		// a step can be counted from either to the other.
		cum := wholeRecording(t, cache, key(cache)).cum
		var mid *RetrieveResponse
		at := 0
		for _, resp := range prefixes[1 : len(prefixes)-1] {
			if i := int(resp.Segment.To() - resp.Segment.From); cum[i] > cum[i-1] && cum[i+1] > cum[i] {
				mid, at = resp, i
			}
		}
		if mid == nil {
			t.Fatalf("%s: no prefix stops between two entries that step the machine (steps %v)", id, cum)
		}
		for _, tc := range []struct {
			name   string
			mutate func(rec *recording)
		}{
			{"chain hash", func(rec *recording) { rec.chain[(at+1)*rec.size-1] ^= 0x01 }},
			{"one step too many", func(rec *recording) { rec.cum[at]++ }},
			{"one step too few", func(rec *recording) { rec.cum[at]-- }},
		} {
			name, mutate := tc.name, tc.mutate
			cache, audit = open()
			audit(whole)
			rec := wholeRecording(t, cache, key(cache))
			mutate(rec)
			cache.put(key(cache), rec.encode())
			hits, misses := cache.Hits(), cache.Misses()
			audit(whole)
			audit(prefixes[0])
			if cache.Hits() != hits+2 || cache.Misses() != misses {
				t.Fatalf("%s: %s at %d: walks that stop elsewhere: hits %d→%d misses %d→%d", id, name, at, hits, cache.Hits(), misses, cache.Misses())
			}
			audit(mid)
			if cache.Hits() != hits+2 || cache.Misses() != misses+1 {
				t.Fatalf("%s: %s at %d: the walk that stops there: hits %d→%d misses %d→%d, want one miss", id, name, at, hits, cache.Hits(), misses, cache.Misses())
			}
			if got := wholeRecording(t, cache, key(cache)); len(got.cum) != at+1 {
				t.Fatalf("%s: %s: the miss left a recording of %d entries, want its own %d", id, name, len(got.cum), at+1)
			}
		}
	}
}
