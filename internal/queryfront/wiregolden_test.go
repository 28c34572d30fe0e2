package queryfront_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dlog"
	"repro/internal/queryfront"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from this tree's frames")

// tap is a loopback TCP relay that records one connection's bytes in each
// direction (the twin of the one in transport's golden test; it uses nothing
// of either package, so the same file captures frames at any commit).
type tap struct {
	ln       net.Listener
	mu       sync.Mutex
	up, down bytes.Buffer // client→server, server→client
}

func startTap(t *testing.T, target string) *tap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{ln: ln}
	var wg sync.WaitGroup
	relay := func(dst, src net.Conn, rec *bytes.Buffer) {
		defer wg.Done()
		defer dst.Close()
		defer src.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				tp.mu.Lock()
				rec.Write(buf[:n])
				tp.mu.Unlock()
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			wg.Add(2)
			go relay(server, client, &tp.up)
			go relay(client, server, &tp.down)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return tp
}

// take returns and clears what was recorded since the last take.
func (tp *tap) take() (up, down []byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	up = append([]byte(nil), tp.up.Bytes()...)
	down = append([]byte(nil), tp.down.Bytes()...)
	tp.up.Reset()
	tp.down.Reset()
	return up, down
}

// stepClock is a deterministic core.Clock: each reading is one millisecond
// after the previous one.
type stepClock struct {
	mu sync.Mutex
	t  types.Time
}

func (c *stepClock) Now() types.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += types.Millisecond
	return c.t
}

// TestWireGolden pins the bytes of the query protocol: one request and one
// answer for stats, explain and audit plus one refusal, captured off a
// loopback connection to a frontend over a deterministic three-node
// deployment, and one audit answer body with every tier populated, compared
// with testdata/wire.golden. The file was generated at the commit before the
// RPC core was unified: a new snp-query must keep talking to old frontends.
// Explain and audit answers carry Elapsed, a wall-clock reading; those lines
// hold the frame without its length prefix and without that varint (the last
// of an audit answer; in an explain answer the audited spans follow it).
func TestWireGolden(t *testing.T) {
	cluster := transport.NewCluster()
	defer cluster.Close()

	cfg := core.DefaultConfig()
	cfg.Tprop = 5 * types.Second
	cfg.DeltaClock = types.Second
	cfg.CheckpointEvery = 0
	dir := core.NewDirectory()
	maint := core.NewMaintainer()
	cluster.SetMaintainer(maint)
	ids := []types.NodeID{"a", "b", "d"}
	for i, id := range ids {
		key, err := cryptoutil.PooledKey(cfg.Suite, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		dir.Register(id, key.Public())
		node, err := core.NewNode(id, cfg, key, dir, maint, &stepClock{t: types.Second}, cluster,
			dlog.NewMachine(mincost.Program(), id))
		if err != nil {
			t.Fatal(err)
		}
		if _, err = cluster.Serve(node, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	// One causal chain and no timers, so the logs are the same every run: a
	// ships cost(@b,c,a,5) to b and gets one ack back; its message to c (not
	// deployed) is dropped; d's log stays empty, which makes d a lead.
	logLens := func() (n uint64) {
		for _, id := range ids {
			_ = cluster.With(id, func(nd *core.Node) { n += nd.Log.Len() })
		}
		return n
	}
	if err := cluster.With("a", func(n *core.Node) {
		n.InsertBase(mincost.Link("a", "b", 3))
		n.InsertBase(mincost.Link("a", "c", 2))
	}); err != nil {
		t.Fatal(err)
	}
	for last, stable := uint64(0), 0; stable < 10; {
		time.Sleep(20 * time.Millisecond)
		if n := logLens(); n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
	maint.NotifyMissingAck("a", types.MessageID{Src: "a", Dst: "c", Seq: 2})

	srv, err := queryfront.Serve(queryfront.Config{
		Cluster: cluster, Base: cfg, Dir: dir, Factory: mincost.Factory(), Sessions: 1,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tp := startTap(t, srv.Addr())
	cl, err := queryfront.Dial(tp.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var got bytes.Buffer
	// record writes one exchange; elapsed >= 0 cuts the answer as described,
	// after bytes follow Elapsed in it.
	record := func(name string, elapsed time.Duration, after int) {
		t.Helper()
		up, down := tp.take()
		if len(up) == 0 || len(down) == 0 {
			t.Fatalf("%s: nothing crossed the wire", name)
		}
		if elapsed >= 0 {
			cut := len(down) - after
			down = append(down[4:cut-len(binary.AppendVarint(nil, int64(elapsed)))], down[cut:]...)
		}
		fmt.Fprintf(&got, "%s request %s\n%s answer %s\n", name, hex.EncodeToString(up), name, hex.EncodeToString(down))
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
	record("stats", -1, 0)
	ex, err := cl.Explain(queryfront.ExplainRequest{Node: "b", Tuple: mincost.BestCost("b", "c", 5), Scope: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Vertices < 5 {
		t.Fatalf("explanation has %d vertices:\n%s", ex.Vertices, ex.Rendered)
	}
	if len(ex.Audited) != 2 {
		t.Fatalf("explanation audited %+v, want a span of b's log and one of a's", ex.Audited)
	}
	spans := wire.NewWriter(64)
	wire.WriteSlice(spans, ex.Audited, queryfront.AuditedSpan.MarshalWire)
	record("explain", ex.Elapsed, spans.Len())
	au, err := cl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(au.Unreachable) != 1 || len(au.Notes) != 1 || len(au.Failures) != 0 {
		t.Fatalf("audit = %+v, want d as the one lead, one note, no evidence", au)
	}
	record("audit", au.Elapsed, 0)
	if _, err := cl.Explain(queryfront.ExplainRequest{Node: "b", Tuple: mincost.BestCost("b", "c", 9)}); err == nil {
		t.Fatal("a tuple that never existed was explained")
	}
	record("refused", -1, 0)

	fmt.Fprintf(&got, "audit-body %s\n", hex.EncodeToString(wire.Encode(fullAuditResult())))

	path := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
}

// fullAuditResult is an audit answer with every tier populated.
func fullAuditResult() queryfront.AuditResult {
	return queryfront.AuditResult{
		Failures:    []core.Failure{{Node: "c", Seq: 9, Reason: "mismatch"}},
		RedHosts:    []types.NodeID{"c"},
		Unreachable: []queryfront.Lead{{Node: "d", Err: "partitioned"}},
		Notes:       []core.MissingAckNote{{Reporter: "a", ID: types.MessageID{Src: "a", Dst: "d", Seq: 2}}},
		Elapsed:     3 * time.Millisecond,
	}
}
