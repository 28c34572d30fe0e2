package queryfront

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/seclog"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// ledgerFront is an honest, converged, settled mincost deployment over
// loopback TCP with a frontend on it, and a count of the queriers the
// frontend built: an audit that builds none prepared and committed nothing.
type ledgerFront struct {
	h        *live.Harness
	srv      *Server
	queriers *atomic.Int64
}

func newLedgerFront(t *testing.T, opts live.Options) ledgerFront {
	t.Helper()
	app, err := live.AppByName("mincost")
	if err != nil {
		t.Fatal(err)
	}
	h, err := live.New(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	h.Settle()
	queriers := new(atomic.Int64)
	srv, err := Serve(Config{
		Cluster: h.Cluster, Base: h.Cfg, Dir: h.Dir, Factory: app.Factory,
		ConfigureQuerier: func(*core.Querier) { queriers.Add(1) },
		Sessions:         4, QueryTimeout: 20 * time.Second,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return ledgerFront{h: h, srv: srv, queriers: queriers}
}

// grow makes the deployment's logs longer: c learns of a cheaper link, the
// routers exchange the consequences, and the exchanges settle.
func (f ledgerFront) grow(t *testing.T, link types.Tuple) {
	t.Helper()
	var err error
	if werr := f.h.With("c", func(n *core.Node) { err = n.InsertBase(link) }); werr != nil || err != nil {
		t.Fatal(werr, err)
	}
	f.h.Settle()
}

// countingFetcher is a session's fetcher with every call counted, and a fault
// to inject: a notes merge that reports an error.
type countingFetcher struct {
	auditFetcher
	syncErr error

	mu                       sync.Mutex
	syncs, latest, retrieves int
	authsAbout, authsSince   map[types.NodeID]int // calls by observer
	sinceRead                int                  // authenticators AuthsSince returned
}

func (f ledgerFront) fetcher(t *testing.T) *countingFetcher {
	t.Helper()
	return &countingFetcher{auditFetcher: f.remote(t, "auditor")}
}

func (f ledgerFront) remote(t *testing.T, id types.NodeID) *transport.RemoteFetcher {
	t.Helper()
	rf := f.h.Cluster.NewFetcher(id)
	t.Cleanup(rf.Close)
	return rf
}

func (c *countingFetcher) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncs, c.latest, c.retrieves, c.authsAbout, c.authsSince, c.sinceRead = 0, 0, 0, nil, nil, 0
}

func (c *countingFetcher) SyncNotes(m *core.Maintainer) error {
	c.mu.Lock()
	c.syncs++
	c.mu.Unlock()
	if err := c.auditFetcher.SyncNotes(m); err != nil {
		return err
	}
	return c.syncErr
}

func (c *countingFetcher) LatestAuth(node types.NodeID) (seclog.Authenticator, error) {
	c.mu.Lock()
	c.latest++
	c.mu.Unlock()
	return c.auditFetcher.LatestAuth(node)
}

func (c *countingFetcher) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	c.mu.Lock()
	c.retrieves++
	c.mu.Unlock()
	return c.auditFetcher.Retrieve(node, req)
}

func (c *countingFetcher) AuthsAbout(observer, target types.NodeID, t1, t2 types.Time) []seclog.Authenticator {
	c.mu.Lock()
	if c.authsAbout == nil {
		c.authsAbout = make(map[types.NodeID]int)
	}
	c.authsAbout[observer]++
	c.mu.Unlock()
	return c.auditFetcher.AuthsAbout(observer, target, t1, t2)
}

func (c *countingFetcher) AuthsSince(observer, target types.NodeID, from transport.AuthCursor) ([]seclog.Authenticator, transport.AuthCursor, error) {
	auths, next, err := c.auditFetcher.AuthsSince(observer, target, from)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.authsSince == nil {
		c.authsSince = make(map[types.NodeID]int)
	}
	c.authsSince[observer]++
	c.sinceRead += len(auths)
	return auths, next, err
}

// answer is a verdict as a client would receive it, Elapsed left at zero.
func answer(v *adversary.Verdict) []byte { return wire.Encode(auditResultOf(v)) }

func clean(v *adversary.Verdict) bool {
	return len(v.Failures) == 0 && len(v.RedHosts) == 0 && len(v.Unresponsive) == 0
}

// TestLedgerHitRunsOnlyTheLiveChecks pins what a hit costs and what it says:
// one notes merge, one LatestAuth, one AuthsSince per peer, no AuthsAbout, no
// Retrieve and no querier (so no Prepare, no Commit, no audit-cache lookup) —
// and the bytes a full audit of the same target answers with. The first hit
// reads every peer's authenticators about the target, later ones none of a
// deployment that is not running. Whole-deployment audits and Explains neither
// fill the ledger nor read it.
func TestLedgerHitRunsOnlyTheLiveChecks(t *testing.T) {
	f := newLedgerFront(t, live.Options{Seed: 1})
	fetch := f.fetcher(t)
	s := f.srv

	s.audit(fetch, nil)
	s.audit(fetch, []types.NodeID{"b", "c"})
	if _, err := s.explain(fetch, &ExplainRequest{Node: "c", Tuple: mincost.BestCost("c", "d", 5), Scope: 8}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LedgerHits+st.LedgerMisses != 0 || st.LedgerBytes != 0 {
		t.Fatalf("multi-target audits or an Explain touched the ledger: %v", st)
	}

	fetch.reset()
	built := f.queriers.Load()
	first := s.audit(fetch, []types.NodeID{"c"})
	if !clean(first) || fetch.retrieves != 1 || f.queriers.Load() != built+1 {
		t.Fatalf("first audit of c: %v, %d retrieves, %d queriers", first, fetch.retrieves, f.queriers.Load()-built)
	}
	st := s.Stats()
	if st.LedgerHits != 0 || st.LedgerMisses != 1 || st.LedgerBytes == 0 {
		t.Fatalf("after the first audit of c: %v", st)
	}

	wantSince := map[types.NodeID]int{"b": 1, "d": 1}
	for i := 1; i <= 3; i++ {
		fetch.reset()
		built = f.queriers.Load()
		hit := s.audit(fetch, []types.NodeID{"c"})
		if fetch.syncs != 1 || fetch.latest != 1 || fetch.retrieves != 0 || fetch.authsAbout != nil || !reflect.DeepEqual(fetch.authsSince, wantSince) {
			t.Errorf("hit %d made %d notes merges, %d LatestAuth, %d Retrieve, AuthsAbout %v, AuthsSince %v; want 1, 1, 0, none, %v",
				i, fetch.syncs, fetch.latest, fetch.retrieves, fetch.authsAbout, fetch.authsSince, wantSince)
		}
		if (i == 1) != (fetch.sinceRead != 0) {
			t.Errorf("hit %d read %d authenticators; want all the peers hold on the first hit, none after", i, fetch.sinceRead)
		}
		if f.queriers.Load() != built {
			t.Errorf("hit %d built %d queriers", i, f.queriers.Load()-built)
		}
		if got, want := answer(hit), answer(first); string(got) != string(want) {
			t.Errorf("hit %d answers\n%x\nthe full audit answered\n%x", i, got, want)
		}
		if st := s.Stats(); st.LedgerHits != uint64(i) || st.LedgerMisses != 1 {
			t.Errorf("after hit %d on c: %v", i, st)
		}
		if i == 2 {
			s.audit(fetch, nil) // a whole-deployment audit in between changes nothing for the next hit
		}
	}
}

// TestLedgerStaleHead: once the target's log has grown, the held head is not
// the one it signs, the audit runs in full, and what it finds is in the answer
// — nothing new for an honest node, which is then held at its new head; a red
// send for one that was compromised in between, which is then not held at all.
func TestLedgerStaleHead(t *testing.T) {
	f := newLedgerFront(t, live.Options{Seed: 1})
	fetch := f.fetcher(t)
	s := f.srv
	target := []types.NodeID{"c"}

	s.audit(fetch, target)
	f.grow(t, mincost.Link("c", "b", 1))
	fetch.reset()
	if v := s.audit(fetch, target); !clean(v) || fetch.retrieves != 1 {
		t.Fatalf("audit after honest growth: %v, %d retrieves", v, fetch.retrieves)
	}
	fetch.reset()
	if v := s.audit(fetch, target); !clean(v) || fetch.retrieves != 0 {
		t.Fatalf("audit at the new head: %v, %d retrieves", v, fetch.retrieves)
	}

	// c turns: it keeps deriving updates for its neighbours and stops
	// sending them.
	if err := f.h.With("c", adversary.Suppress(nil).Install); err != nil {
		t.Fatal(err)
	}
	f.grow(t, mincost.Link("c", "d", 1))
	for i := 0; i < 2; i++ {
		fetch.reset()
		v := s.audit(fetch, target)
		if fetch.retrieves != 1 {
			t.Errorf("audit %d of the compromised c made %d retrieves, want the full audit", i, fetch.retrieves)
		}
		if !reflect.DeepEqual(v.StrongNodes(), target) {
			t.Errorf("audit %d of the compromised c: %v, want provable evidence against c", i, v)
		}
	}
	if st := s.Stats(); st.LedgerBytes != 0 {
		t.Errorf("the compromised node's head is held: %v", st)
	}
}

// TestLedgerNotes: the merged §5.4 notes are part of what an entry vouches
// for. A new note is a miss that carries the note, and a merge that reported
// an error is never a hit and never an entry — with the count on the stats.
func TestLedgerNotes(t *testing.T) {
	f := newLedgerFront(t, live.Options{Seed: 1})
	fetch := f.fetcher(t)
	s := f.srv
	target := []types.NodeID{"d"}

	// A merge that failed: the audit runs in full and is not recorded.
	fetch.syncErr = errors.New("injected: a node kept its notes")
	for i := 0; i < 2; i++ {
		fetch.reset()
		if v := s.audit(fetch, target); !clean(v) || fetch.retrieves != 1 {
			t.Fatalf("audit %d over a failed merge: %v, %d retrieves", i, v, fetch.retrieves)
		}
	}
	if st := s.Stats(); st.NotesSyncErrors != 2 || st.LedgerHits != 0 || st.LedgerMisses != 2 || st.LedgerBytes != 0 {
		t.Fatalf("after two audits over a failed merge: %v", st)
	}

	fetch.syncErr = nil
	before := s.audit(fetch, target)
	held := s.Stats().LedgerBytes
	if held == 0 {
		t.Fatal("a clean audit over a complete merge was not recorded")
	}

	// With an entry on record, a failed merge still takes the full audit, and
	// leaves the entry alone.
	fetch.syncErr = errors.New("injected again")
	fetch.reset()
	if s.audit(fetch, target); fetch.retrieves != 1 || s.Stats().LedgerBytes != held {
		t.Errorf("a failed merge over a held entry: %d retrieves, %d bytes held (was %d)", fetch.retrieves, s.Stats().LedgerBytes, held)
	}
	fetch.syncErr = nil

	note := core.MissingAckNote{Reporter: "b", ID: types.MessageID{Src: "b", Dst: "z", Seq: 77}}
	f.h.Maint.NotifyMissingAck(note.Reporter, note.ID)
	fetch.reset()
	after := s.audit(fetch, target)
	if fetch.retrieves != 1 {
		t.Errorf("the audit after a new note made %d retrieves, want the full audit", fetch.retrieves)
	}
	if want := append(append([]core.MissingAckNote(nil), before.Notes...), note); !reflect.DeepEqual(after.Notes, want) {
		t.Errorf("notes after = %v, want %v", after.Notes, want)
	}
	fetch.reset()
	if again := s.audit(fetch, target); fetch.retrieves != 0 || string(answer(again)) != string(answer(after)) {
		t.Errorf("the audit over the same notes: %d retrieves, %v (full audit: %v)", fetch.retrieves, again, after)
	}
}

// fork has c sign another history for its second log position: an
// authenticator of c's that is off the chain c presents.
func (f ledgerFront) fork(t *testing.T) seclog.Authenticator {
	t.Helper()
	var fork seclog.Authenticator
	var err error
	if werr := f.h.With("c", func(n *core.Node) {
		if fork, err = n.Log.AuthenticatorAt(2); err != nil {
			return
		}
		fork.Hash = append([]byte(nil), fork.Hash...)
		fork.Hash[0] ^= 0xFF
		fork.Sig, err = n.Log.Sign(fork.T, fork.Hash)
	}); werr != nil || err != nil {
		t.Fatal(werr, err)
	}
	return fork
}

// plant adds auths to what b holds about its peers.
func (f ledgerFront) plant(t *testing.T, auths ...seclog.Authenticator) {
	t.Helper()
	if err := f.h.With("b", func(n *core.Node) {
		for _, a := range auths {
			n.Auths.Add(a)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// expectFork requires the next audit of c, whose head has not moved, to be a
// hit that reports the fork b holds, that gives up c's entry, and whose answer
// is byte for byte the one the full audit after it gives.
func (f ledgerFront) expectFork(t *testing.T, fetch *countingFetcher) {
	t.Helper()
	s := f.srv
	target := []types.NodeID{"c"}
	hits := s.Stats().LedgerHits
	fetch.reset()
	hit := s.audit(fetch, target)
	if fetch.retrieves != 0 {
		t.Fatalf("the audit at an unchanged head made %d retrieves", fetch.retrieves)
	}
	want := []core.Failure{{Node: "c", Seq: 2, Reason: "authenticator held by a peer is not on the presented chain (fork)"}}
	if !reflect.DeepEqual(hit.Failures, want) {
		t.Errorf("hit failures = %v, want %v", hit.Failures, want)
	}
	if st := s.Stats(); st.LedgerBytes != 0 || st.LedgerHits != hits+1 {
		t.Errorf("after the hit on the forked node (hits were %d): %v", hits, st)
	}

	fetch.reset()
	full := s.audit(fetch, target)
	if fetch.retrieves != 1 {
		t.Errorf("the audit after the entry was dropped made %d retrieves", fetch.retrieves)
	}
	if string(answer(full)) != string(answer(hit)) {
		t.Errorf("the hit answered %v, a full audit answers %v", hit, full)
	}
	if st := s.Stats(); st.LedgerBytes != 0 {
		t.Errorf("after the full audit of the forked node: %v", st)
	}
}

// TestLedgerLateFork: an authenticator that proves a fork reaches a peer after
// the target's head went on record, and after two hits took every peer's
// cursor past all it held. The next hit reads what lies past the cursors,
// finds the fork, words it as a full audit does, and gives up the entry.
func TestLedgerLateFork(t *testing.T) {
	f := newLedgerFront(t, live.Options{Seed: 1})
	fetch := f.fetcher(t)
	for range 3 {
		f.srv.audit(fetch, []types.NodeID{"c"})
	}
	f.plant(t, f.fork(t))
	f.expectFork(t, fetch)
}

// TestLedgerPeerRestartResetsCursor: b restarts between two hits, and the new
// b's list holds the fork below the position b's cursor names, with more past
// it. The cursor names the old serving of b, so the hit reads the new list
// from the start and finds the fork.
func TestLedgerPeerRestartResetsCursor(t *testing.T) {
	f := newLedgerFront(t, live.Options{Seed: 1, LogDir: t.TempDir()})
	fetch := f.fetcher(t)
	for range 2 {
		f.srv.audit(fetch, []types.NodeID{"c"})
	}
	var held []seclog.Authenticator
	if err := f.h.With("b", func(n *core.Node) { held = slices.Clone(n.Auths.From("c")) }); err != nil || len(held) == 0 {
		t.Fatalf("b holds %d authenticators of c's (%v)", len(held), err)
	}
	if err := f.h.Restart("b"); err != nil {
		t.Fatal(err)
	}
	f.plant(t, append([]seclog.Authenticator{f.fork(t)}, held...)...)
	f.expectFork(t, fetch)
}

// notesVia is a fetcher whose notes merge goes through another one.
type notesVia struct {
	auditFetcher
	notes auditFetcher
}

func (n notesVia) SyncNotes(m *core.Maintainer) error { return n.notes.SyncNotes(m) }

// TestLedgerUnreachablePeerKeepsCursor: b holds the fork during a hit whose
// reads cannot reach b. That hit answers without b's evidence, as a full
// audit's consistency check does without an unreachable peer's, and keeps b's
// cursor; the next hit, which reaches b, finds the fork.
func TestLedgerUnreachablePeerKeepsCursor(t *testing.T) {
	plan := transport.NewFaultPlan(1, transport.FaultRule{From: "cut", To: "b", Partition: true})
	f := newLedgerFront(t, live.Options{Seed: 1, Fault: plan})
	fetch := f.fetcher(t)
	s := f.srv
	target := []types.NodeID{"c"}
	for range 2 {
		s.audit(fetch, target)
	}
	f.plant(t, f.fork(t))

	cut := f.remote(t, "cut")
	cut.RetryDeadline = 0
	if v := s.audit(notesVia{auditFetcher: cut, notes: fetch}, target); !clean(v) {
		t.Fatalf("the hit that could not reach b: %v", v)
	}
	if st := s.Stats(); st.LedgerHits != 2 || st.LedgerBytes == 0 {
		t.Fatalf("after the hit that could not reach b: %v", st)
	}
	f.expectFork(t, fetch)
}

// TestLedgerRecordsOnlyCleanVerdicts: whatever a verdict found — a failure, a
// red host, a node that did not answer — or failed to replay (no head),
// nothing goes on record; and the cap is kept by
// forgetting the entries used least recently, counted.
func TestLedgerRecordsOnlyCleanVerdicts(t *testing.T) {
	f := newLedgerFront(t, live.Options{Seed: 1})
	q := f.h.NewQuerier()
	sweep := adversary.AuditAll(q, f.h.Maint)
	if !clean(sweep) {
		t.Fatalf("honest deployment: %v", sweep)
	}
	heads := make(map[types.NodeID]*core.AuditedHead)
	total := 0
	for _, id := range f.h.App.Nodes {
		if heads[id] = q.Auditor.AuditedHead(id); heads[id] == nil {
			t.Fatalf("no head for %s", id)
		}
		total += heads[id].Bytes()
	}

	none := map[types.NodeID]error{}
	for name, v := range map[string]*adversary.Verdict{
		"failure":      {Failures: []core.Failure{{Node: "b", Reason: "x"}}, Unresponsive: none},
		"red host":     {RedHosts: []types.NodeID{"b"}, Unresponsive: none},
		"unresponsive": {Unresponsive: map[types.NodeID]error{"b": errors.New("down")}},
	} {
		l := newLedger()
		l.record("b", heads["b"], v)
		if l.lookup("b") != nil || l.bytes != 0 {
			t.Errorf("a verdict with a %s was recorded", name)
		}
	}
	l := newLedger()
	l.record("b", nil, sweep)
	if l.lookup("b") != nil {
		t.Error("an audit that replayed no chain was recorded")
	}

	// One byte short of room for all three.
	l.cap = total - 1
	l.record("b", heads["b"], sweep)
	l.record("c", heads["c"], sweep)
	if l.lookup("b") == nil { // b is now the more recently used
		t.Fatal("b not held")
	}
	l.record("d", heads["d"], sweep)
	if l.lookup("c") != nil || l.lookup("b") == nil || l.lookup("d") == nil {
		t.Error("the cap did not evict c, the entry used least recently")
	}
	var st FrontStats
	l.fill(&st)
	if want := uint64(heads["b"].Bytes() + heads["d"].Bytes()); st.LedgerEvictions != 1 || st.LedgerBytes != want {
		t.Errorf("evictions=%d held=%d, want 1 and %d", st.LedgerEvictions, st.LedgerBytes, want)
	}
	// Replacing an entry is not an eviction, and a chain over the cap is not kept.
	l.record("b", heads["b"], sweep)
	l.cap = heads["d"].Bytes() - 1
	l.record("d", heads["d"], sweep)
	l.fill(&st)
	if l.lookup("d") != nil || st.LedgerEvictions != 1 {
		t.Errorf("a chain larger than the cap: held=%v evictions=%d", l.lookup("d") != nil, st.LedgerEvictions)
	}
}

// TestLedgerConcurrentSessions hammers one ledger from every session at once,
// single-node audits of every node over the wire, while notes arrive and the
// cap forces evictions: every answer is the honest deployment's, and the race
// detector sees the ledger from four goroutines.
func TestLedgerConcurrentSessions(t *testing.T) {
	f := newLedgerFront(t, live.Options{Seed: 1})
	f.srv.ledger.mu.Lock()
	f.srv.ledger.cap = 400 // two of the three chains, about
	f.srv.ledger.mu.Unlock()

	const clients, rounds = 6, 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(f.srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < rounds; i++ {
				id := f.h.App.Nodes[(c+i)%len(f.h.App.Nodes)]
				res, err := cl.Audit(id)
				if err != nil {
					t.Errorf("audit of %s: %v", id, err)
					return
				}
				if len(res.Failures) != 0 || len(res.RedHosts) != 0 || len(res.Unreachable) != 0 {
					t.Errorf("honest %s: %+v", id, res)
				}
				if c == 0 && i%4 == 3 {
					f.h.Maint.NotifyMissingAck("b", types.MessageID{Src: "b", Dst: "z", Seq: uint64(i)})
				}
			}
		}()
	}
	wg.Wait()
	st := f.srv.Stats()
	t.Logf("stats: %v", st)
	if st.LedgerHits+st.LedgerMisses != clients*rounds || st.LedgerHits == 0 {
		t.Errorf("ledger counted %d hits and %d misses over %d single-node audits", st.LedgerHits, st.LedgerMisses, clients*rounds)
	}
	if st.LedgerBytes > 400 {
		t.Errorf("%d bytes held over a cap of 400", st.LedgerBytes)
	}
}
