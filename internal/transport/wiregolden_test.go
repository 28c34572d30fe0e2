package transport

import (
	"bytes"
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
	"repro/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from this tree's frames")

// tap is a loopback TCP relay that records the bytes of one connection in
// each direction, so a test can read back exactly what crossed the wire. It
// uses nothing of this package: the same file captures frames at any commit.
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
			go tp.relay(&wg, server, client, &tp.up)
			go tp.relay(&wg, client, server, &tp.down)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return tp
}

func (tp *tap) relay(wg *sync.WaitGroup, dst, src net.Conn, rec *bytes.Buffer) {
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

// take returns and clears what was recorded since the last take. A caller
// that has its answer has, by then, seen every byte of both directions pass.
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

// TestWireGolden pins the bytes of the audit control plane and the data
// plane: one request and one ok answer for each node RPC, one refusal, one
// envelope and one ack, captured off a loopback connection (the RPCs) or from
// the frame encoder (the packets) and compared with testdata/wire.golden. The
// file was generated at the commit before the RPC core was unified; a daemon
// built from either side must understand the other. The auths-since lines
// came with that kind, and the lines before them did not change.
func TestWireGolden(t *testing.T) {
	cluster := NewCluster()
	defer cluster.Close()

	cfg := core.DefaultConfig()
	cfg.Tprop = 5 * types.Second
	cfg.DeltaClock = types.Second
	cfg.CheckpointEvery = 0
	dir := core.NewDirectory()
	maint := core.NewMaintainer()
	cluster.SetMaintainer(maint)
	ids := []types.NodeID{"a", "b", "d"}
	addrs := map[types.NodeID]string{}
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
		if addrs[id], err = cluster.Serve(node, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	// One causal chain and no timers, so the logs are the same every run: a
	// ships cost(@b,c,a,5) to b and gets one ack back over one FIFO link; its
	// message to c (not deployed) is dropped; d's log stays empty (the refusal).
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
	maint.NotifyMissingAck("a", types.MessageID{Src: "a", Dst: "b", Seq: 7})

	// The auditor reaches every node through a recording relay.
	taps := map[types.NodeID]*tap{}
	for _, id := range ids {
		taps[id] = startTap(t, addrs[id])
		cluster.AddPeer(id, taps[id].ln.Addr().String())
	}
	f := cluster.NewFetcher("auditor")
	defer f.Close()

	var got bytes.Buffer
	record := func(name string, node types.NodeID, err error) {
		t.Helper()
		up, down := taps[node].take()
		if len(up) == 0 || len(down) == 0 {
			t.Fatalf("%s: nothing crossed the wire (err %v)", name, err)
		}
		fmt.Fprintf(&got, "%s request %s\n%s answer %s\n", name, hex.EncodeToString(up), name, hex.EncodeToString(down))
	}
	must := func(name string, node types.NodeID, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		record(name, node, nil)
	}
	_, err := f.Retrieve("a", core.RetrieveRequest{})
	must("retrieve", "a", err)
	_, err = f.LatestAuth("a")
	must("latest-auth", "a", err)
	if auths := f.AuthsAbout("b", "a", 0, types.Time(1)<<40); len(auths) == 0 {
		t.Fatal("auths-about: b holds no authenticator of a")
	}
	record("auths-about", "b", nil)
	_, err = f.Health("a", 1)
	must("health", "a", err)
	notes, err := f.Notes("a")
	if len(notes) != 1 {
		t.Fatalf("notes = %v, want one", notes)
	}
	must("notes", "a", err)
	if _, err = f.LatestAuth("d"); err == nil {
		t.Fatal("latest-auth of an empty log was answered")
	}
	record("refused", "d", err)
	// Last, so that the request ids of the calls above stay those of the file.
	// The answer carries b's epoch, which Serve draws at random: pin it.
	cluster.mu.Lock()
	b := cluster.nodes["b"]
	cluster.mu.Unlock()
	b.mu.Lock()
	b.epoch = 0x5eed
	b.mu.Unlock()
	_, _, err = f.AuthsSince("b", "a", AuthCursor{})
	must("auths-since", "b", err)

	// Data frames are one-way; the encoder's output is what deliver writes.
	msg := types.Message{Src: "b", Dst: "a", Pol: types.PolAppear,
		Tuple: types.MakeTuple("t", types.N("a"), types.I(1)), SendTime: types.Second, Seq: 1}
	env, err := encodePacketFrame("b", &core.Packet{Kind: core.PktEnvelope, Envelope: &core.Envelope{
		Msgs: []types.Message{msg}, PrevHash: []byte{1, 2}, T: types.Second, Sig: []byte{3, 4}, Seq: 5,
	}}, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := encodePacketFrame("a", &core.Packet{Kind: core.PktAck, Ack: &core.Ack{
		IDs: []types.MessageID{msg.ID()}, PrevHash: []byte{6}, T: 2 * types.Second, Sig: []byte{7}, Seq: 9,
	}}, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "envelope %s\nack %s\n", hex.EncodeToString(env), hex.EncodeToString(ack))

	compareGolden(t, filepath.Join("testdata", "wire.golden"), got.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
