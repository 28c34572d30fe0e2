package queryfront_test

import (
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/queryfront"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// ghostFront starts a frontend over a cluster whose peers are TCP black
// holes (a closed loopback port): every audit call fails after its retry
// deadline, making query service time long and controllable — exactly
// what the backpressure tests need — while the verdicts must still
// degrade to leads, never accusations.
func ghostFront(t *testing.T, cfg queryfront.Config) (*queryfront.Server, *transport.Cluster) {
	t.Helper()
	cluster := transport.NewCluster()
	t.Cleanup(cluster.Close)
	cluster.AddPeer("ghost-a", "127.0.0.1:1")
	cluster.AddPeer("ghost-b", "127.0.0.1:1")
	cfg.Cluster = cluster
	cfg.Dir = core.NewDirectory()
	cfg.Factory = mincost.Factory()
	cfg.Base = core.DefaultConfig()
	srv, err := queryfront.Serve(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, cluster
}

// TestShedAndCount pins the admission-queue backpressure contract: with
// one session and a one-slot queue, a burst of concurrent queries gets at
// most two executed and the rest shed immediately with an in-band
// ErrOverloaded — no blocking, no deadline violations — and FrontStats
// accounts for every submitted query.
func TestShedAndCount(t *testing.T) {
	srv, _ := ghostFront(t, queryfront.Config{
		Sessions: 1, QueueLen: 1,
		QueryTimeout: 10 * time.Second,
		CallTimeout:  50 * time.Millisecond, RetryDeadline: 200 * time.Millisecond,
	})

	const burst = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		served  int
		shed    int
		results []*queryfront.AuditResult
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := queryfront.Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			res, err := cl.Audit()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
				results = append(results, res)
			case errors.Is(err, queryfront.ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected audit error: %v", err)
			}
		}()
	}
	wg.Wait()

	if served == 0 {
		t.Error("no query was served")
	}
	if shed == 0 {
		t.Error("an 8-query burst against a 1-session/1-slot frontend shed nothing")
	}
	if served+shed != burst {
		t.Errorf("served %d + shed %d != %d submitted", served, shed, burst)
	}
	// Unreachable peers are leads, never provable evidence — even through
	// the frontend.
	for _, res := range results {
		if len(res.Failures) != 0 || len(res.RedHosts) != 0 {
			t.Errorf("unreachable-only deployment produced provable evidence: %+v", res)
		}
		if got := res.Verdict().LeadNodes(); !reflect.DeepEqual(got, []types.NodeID{"ghost-a", "ghost-b"}) {
			t.Errorf("leads = %v, want both ghosts", got)
		}
	}

	stats := srv.Stats()
	t.Logf("stats: %v", stats)
	if stats.Served != uint64(served) || stats.Shed != uint64(shed) {
		t.Errorf("stats served/shed = %d/%d, client saw %d/%d", stats.Served, stats.Shed, served, shed)
	}
	if stats.Served+stats.Shed+stats.Expired+stats.Failed != burst {
		t.Errorf("stats do not account for all %d queries: %v", burst, stats)
	}
	// The latency digest must cover the served audits with sane
	// nearest-rank percentiles.
	var audit *queryfront.KindStats
	for i := range stats.Kinds {
		if stats.Kinds[i].Kind == "audit" {
			audit = &stats.Kinds[i]
		}
	}
	if audit == nil || audit.Count != uint64(served) {
		t.Fatalf("audit kind stats missing or miscounted: %+v", stats.Kinds)
	}
	if audit.P50 <= 0 || audit.P99 < audit.P50 {
		t.Errorf("implausible percentiles: %+v", audit)
	}

	// The stats RPC must report the same snapshot over the wire.
	cl, err := queryfront.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	remote, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if remote.Served != stats.Served || remote.Shed != stats.Shed || len(remote.Kinds) != len(stats.Kinds) {
		t.Errorf("stats over the wire %v != local %v", remote, stats)
	}
}

// TestDeadlineExpiresInQueue pins the deadline side of backpressure: a
// query that outwaits its deadline in the admission queue is dropped
// unexecuted and counted as expired, with an in-band error naming the
// queue wait.
func TestDeadlineExpiresInQueue(t *testing.T) {
	srv, _ := ghostFront(t, queryfront.Config{
		Sessions: 1, QueueLen: 4,
		QueryTimeout: 500 * time.Millisecond,
		CallTimeout:  50 * time.Millisecond, RetryDeadline: 300 * time.Millisecond,
	})

	// Each executed audit costs ~2×RetryDeadline per ghost (notes sync +
	// audit), far beyond QueryTimeout, so whichever queries queue behind
	// the first expire before a session reaches them.
	const burst = 4
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		expiredErrs int
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := queryfront.Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			if _, err := cl.Audit(); err != nil && strings.Contains(err.Error(), "deadline expired") {
				mu.Lock()
				expiredErrs++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	stats := srv.Stats()
	t.Logf("stats: %v", stats)
	if stats.Expired == 0 {
		t.Errorf("no query expired in the queue: %v", stats)
	}
	if uint64(expiredErrs) != stats.Expired {
		t.Errorf("clients saw %d expiry errors, stats counted %d", expiredErrs, stats.Expired)
	}
	if stats.Served+stats.Shed+stats.Expired+stats.Failed != burst {
		t.Errorf("stats do not account for all %d queries: %v", burst, stats)
	}
}

// TestWireRoundTrip pins the query protocol's encodings: every DTO
// round-trips bit-exactly through its wire form.
func TestWireRoundTrip(t *testing.T) {
	reqIn := queryfront.ExplainRequest{
		Node:  "as10",
		Tuple: types.MakeTuple("route", types.N("as10"), types.N("as51"), types.I(2)),
		Mode:  core.ModeDisappear, Direction: core.Effects,
		At: 7, Scope: 5, StartHint: 3,
	}
	var reqOut queryfront.ExplainRequest
	roundTrip(t, reqIn.MarshalWire, reqOut.UnmarshalWire)
	if !reflect.DeepEqual(reqIn, reqOut) {
		t.Errorf("ExplainRequest round trip: %+v != %+v", reqOut, reqIn)
	}

	auditIn := queryfront.AuditRequest{Targets: []types.NodeID{"a", "b"}}
	var auditOut queryfront.AuditRequest
	roundTrip(t, auditIn.MarshalWire, auditOut.UnmarshalWire)
	if !reflect.DeepEqual(auditIn, auditOut) {
		t.Errorf("AuditRequest round trip: %+v != %+v", auditOut, auditIn)
	}

	resIn := queryfront.AuditResult{
		Failures:    []core.Failure{{Node: "c", Seq: 9, Reason: "mismatch"}},
		RedHosts:    []types.NodeID{"c"},
		Unreachable: []queryfront.Lead{{Node: "d", Err: "partitioned"}},
		Notes:       []core.MissingAckNote{{Reporter: "a", ID: types.MessageID{Src: "a", Dst: "d", Seq: 2}}},
		Elapsed:     3 * time.Millisecond,
	}
	var resOut queryfront.AuditResult
	roundTrip(t, resIn.MarshalWire, resOut.UnmarshalWire)
	if !reflect.DeepEqual(resIn, resOut) {
		t.Errorf("AuditResult round trip: %+v != %+v", resOut, resIn)
	}
	if got := resOut.StrongNodes(); !reflect.DeepEqual(got, []types.NodeID{"c"}) {
		t.Errorf("StrongNodes = %v, want [c]", got)
	}

	explIn := queryfront.ExplainResult{
		Rendered: "tree", Vertices: 3,
		Faulty:      []types.NodeID{"as30"},
		Unreachable: []queryfront.Lead{{Node: "as20", Err: "partitioned"}},
		Elapsed:     time.Millisecond,
		Audited: []queryfront.AuditedSpan{
			{Node: "as30", From: 1, To: 40, Through: 3 * types.Second},
			{Node: "as52", From: 7, To: 90, Through: 18 * types.Second}},
	}
	var explOut queryfront.ExplainResult
	roundTrip(t, explIn.MarshalWire, explOut.UnmarshalWire)
	if !reflect.DeepEqual(explIn, explOut) {
		t.Errorf("ExplainResult round trip: %+v != %+v", explOut, explIn)
	}
	// A frontend from before the audited spans ends the frame at Elapsed.
	spans := wire.NewWriter(64)
	wire.WriteSlice(spans, explIn.Audited, queryfront.AuditedSpan.MarshalWire)
	older := wire.Encode(explIn)
	older = older[:len(older)-spans.Len()]
	explIn.Audited, explOut = nil, queryfront.ExplainResult{}
	if err := wire.Decode(older, &explOut); err != nil || !reflect.DeepEqual(explIn, explOut) {
		t.Errorf("ExplainResult without spans: %+v (err %v), want %+v", explOut, err, explIn)
	}

	statsIn := queryfront.FrontStats{
		Sessions: 4, QueueCap: 16, Served: 10, Shed: 2, Expired: 1, Failed: 3,
		CacheHits: 8, CacheMisses: 2,
		Kinds: []queryfront.KindStats{{Kind: "audit", Count: 10, P50: time.Millisecond, P99: time.Second}},
	}
	var statsOut queryfront.FrontStats
	roundTrip(t, statsIn.MarshalWire, statsOut.UnmarshalWire)
	if !reflect.DeepEqual(statsIn, statsOut) {
		t.Errorf("FrontStats round trip: %+v != %+v", statsOut, statsIn)
	}
	if statsOut.HitRatio() != 0.8 {
		t.Errorf("HitRatio = %v, want 0.8", statsOut.HitRatio())
	}
}

func roundTrip(t *testing.T, enc func(*wire.Writer), dec func(*wire.Reader) error) {
	t.Helper()
	w := wire.NewWriter(256)
	enc(w)
	r := wire.NewReader(w.Bytes())
	if err := dec(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestClientCloseInterruptsCall is the frontend-level case of transport's
// TestRemoteFetcherCloseConcurrent: against a peer that swallows requests
// and never answers, Close returns at once while a Stats call is parked
// mid-exchange, the parked call then fails, and later calls report the
// closed client. (The client used to hold one mutex across the whole
// exchange, so Close waited out the call's timeout.)
func TestClientCloseInterruptsCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()

	cl, err := queryfront.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := cl.Stats()
		parked <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach its read

	start := time.Now()
	cl.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Close took %v behind an in-flight call", took)
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Error("the parked call succeeded against a mute peer")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the parked call did not fail after Close")
	}
	if _, err := cl.Stats(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("call after Close = %v, want transport.ErrClosed", err)
	}
}
