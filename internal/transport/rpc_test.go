package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// The core's contract, pinned once on a bare Server and Caller with a toy
// handler: what every kind on every listener gets without writing it.

const (
	toyEcho  byte = 0x40 // answers the string it was sent, n times over
	toyPark  byte = 0x42 // hands its Reply to the test and answers when told
	toyMaxFr      = 1 << 10
)

// parkedCall is one toyPark request waiting for the test to answer it.
type parkedCall struct {
	arg   string
	reply Reply
}

// startToyServer serves echo and park under the per-frame deadline
// frameTimeout (0: the default); the channel receives each parked request's
// argument and Reply.
func startToyServer(t *testing.T, frameTimeout time.Duration) (*Server, chan parkedCall) {
	t.Helper()
	parked := make(chan parkedCall, 4) // as many as any test parks at once
	srv := &Server{ID: "toy", MaxFrame: toyMaxFr, WriteTimeout: frameTimeout}
	srv.Handle(toyEcho, func(_ types.NodeID, r *wire.Reader) func(Reply) {
		s, n := r.String(), int(r.Uint())
		return func(reply Reply) {
			reply(nil, func(w *wire.Writer) { w.String(strings.Repeat(s, n)) })
		}
	})
	srv.Handle(toyPark, func(_ types.NodeID, r *wire.Reader) func(Reply) {
		arg := r.String()
		return func(reply Reply) { parked <- parkedCall{arg, reply} }
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, parked
}

func toyCaller(t *testing.T, addr string) *Caller {
	t.Helper()
	c := NewCaller("client", toyMaxFr, Backoff{}, 1,
		func(types.NodeID) (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) })
	c.CallTimeout = 2 * time.Second
	t.Cleanup(c.Close)
	return c
}

func echo(c *Caller, s string, n int) (string, error) {
	var out string
	err := c.Call("toy", toyEcho,
		func(w *wire.Writer) { w.String(s); w.Uint(uint64(n)) },
		func(r *wire.Reader) { out = r.String() })
	return out, err
}

// rawFrame builds [len][from][kind][reqID][body...].
func rawFrame(t *testing.T, kind byte, reqID uint64, body func(*wire.Writer)) []byte {
	t.Helper()
	w := wire.NewWriter(64)
	w.Raw([]byte{0, 0, 0, 0})
	w.String("raw")
	w.Byte(kind)
	w.Uint(reqID)
	if body != nil {
		body(w)
	}
	buf, err := FinishFrame(w, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// expectDropped requires the server to close conn without answering.
func expectDropped(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if payload, err := ReadFrame(conn, DefaultMaxFrame); err == nil {
		t.Fatalf("%s: got an answer (%x), want the connection dropped", what, payload)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s: connection still open after 2s", what)
	}
}

func TestUnknownKindDropsConnection(t *testing.T) {
	srv, _ := startToyServer(t, 0)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawFrame(t, 0x7e, 1, nil)); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, conn, "unknown kind")
	if got := srv.Stats.DecodeErrors.Load(); got != 1 {
		t.Errorf("DecodeErrors = %d, want 1", got)
	}
	if got := srv.Stats.Served.Load(); got != 0 {
		t.Errorf("Served = %d, want 0", got)
	}
}

// memberRequests holds one valid request body per kind a member registers.
// TestTrailingByteRejected ranges over the registrations, not over this
// table, so a kind added without a sample here fails the test.
var memberRequests = map[byte]func(*wire.Writer){
	frameEnvelope: core.Envelope{Msgs: []types.Message{{Src: "b", Dst: "a", Tuple: types.MakeTuple("t", types.I(1)), Seq: 1}},
		PrevHash: []byte{1}, Sig: []byte{2}, Seq: 3}.MarshalWire,
	frameAck:           core.Ack{IDs: []types.MessageID{{Src: "b", Dst: "a", Seq: 1}}, PrevHash: []byte{1}, Sig: []byte{2}, Seq: 4}.MarshalWire,
	frameRetrieveReq:   core.RetrieveRequest{Auth: seclog.Authenticator{Node: "a", Seq: 1, Hash: []byte{1}, Sig: []byte{2}}}.MarshalWire,
	frameAuthReq:       func(*wire.Writer) {},
	frameAuthsReq:      func(w *wire.Writer) { w.String("b"); w.Int(0); w.Int(9) },
	frameHealthReq:     func(w *wire.Writer) { w.Uint(1) },
	frameNotesReq:      func(*wire.Writer) {},
	frameAuthsSinceReq: func(w *wire.Writer) { w.String("b"); w.Uint(7); w.Uint(3) },
}

// TestTrailingByteRejected: for every kind a Cluster member registers, a
// valid body is accepted and the same body plus one byte drops the
// connection, counted as one decode error, before the node is called — the
// whole-request check is the server's, so a kind cannot forget it.
func TestTrailingByteRejected(t *testing.T) {
	cluster := NewCluster()
	defer cluster.Close()
	ids, _ := serveTestNodes(t, cluster, 1, "")
	cluster.mu.Lock()
	srv := cluster.nodes[ids[0]].srv
	cluster.mu.Unlock()

	for kind, reg := range srv.kinds {
		body, ok := memberRequests[kind]
		if !ok {
			t.Errorf("kind %#x is registered and has no sample request in memberRequests", kind)
			continue
		}
		payload := func(extra []byte) []byte {
			w := wire.NewWriter(64)
			w.String("raw")
			w.Byte(kind)
			if !reg.oneWay {
				w.Uint(7)
			}
			body(w)
			w.Raw(extra)
			return w.Bytes()
		}
		if _, err := srv.decode(payload(nil)); err != nil {
			t.Errorf("kind %#x: the sample request is rejected: %v", kind, err)
			continue
		}
		before := cluster.Stats()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame(payload([]byte{0}))); err != nil {
			t.Fatal(err)
		}
		expectDropped(t, conn, "trailing byte")
		conn.Close()
		after := cluster.Stats()
		if after.DecodeErrors != before.DecodeErrors+1 || after.RPCServed != before.RPCServed {
			t.Errorf("kind %#x + 1 byte: decode errors %d → %d, served %d → %d; want +1 and +0",
				kind, before.DecodeErrors, after.DecodeErrors, before.RPCServed, after.RPCServed)
		}
	}
	var logged uint64
	_ = cluster.With(ids[0], func(n *core.Node) { logged = n.Log.Len() })
	if logged != 0 {
		t.Errorf("the node logged %d entries from rejected frames", logged)
	}
}

func TestOversizedAnswerIsInBand(t *testing.T) {
	srv, _ := startToyServer(t, 0)
	c := toyCaller(t, srv.Addr())

	_, err := echo(c, "0123456789", toyMaxFr) // a 10 KiB answer through a 1 KiB bound
	var refused *RemoteError
	if !errors.As(err, &refused) || !strings.Contains(refused.Msg, "frame too large") {
		t.Fatalf("oversized answer: err = %v, want a *RemoteError naming the frame bound", err)
	}
	if refused.Node != "toy" {
		t.Errorf("RemoteError.Node = %q, want the target", refused.Node)
	}
	got, err := echo(c, "ok", 2)
	if err != nil || got != "okok" {
		t.Fatalf("call after the refusal: %q, %v", got, err)
	}
	if n := srv.Stats.Frames.Load(); n != 2 {
		t.Errorf("server read %d frames, want 2", n)
	}
	// Both calls used one connection: the refusal did not cost a redial.
	srv.mu.Lock()
	conns := len(srv.conns)
	srv.mu.Unlock()
	if conns != 1 {
		t.Errorf("server holds %d connections, want 1", conns)
	}
}

// TestAnswersMatchRequests: two requests on one connection, answered in
// reverse order by other goroutines, each carry their own request id back;
// and a caller skips a stale answer left on its connection.
func TestAnswersMatchRequests(t *testing.T) {
	srv, parked := startToyServer(t, 0)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, arg := range []string{"first", "second"} {
		if _, err := conn.Write(rawFrame(t, toyPark, uint64(i+1), func(w *wire.Writer) { w.String(arg) })); err != nil {
			t.Fatal(err)
		}
	}
	calls := map[string]Reply{}
	for range 2 {
		p := <-parked
		calls[p.arg] = p.reply
	}
	for _, arg := range []string{"second", "first"} {
		done := make(chan struct{})
		go func() { // not the read loop's goroutine
			defer close(done)
			calls[arg](nil, func(w *wire.Writer) { w.String(arg) })
		}()
		<-done
	}
	got := map[uint64]string{}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for range 2 {
		payload, err := ReadFrame(conn, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		_, kind, r, err := BeginFrame(payload)
		if err != nil || kind != toyPark+1 {
			t.Fatalf("answer kind %#x, err %v", kind, err)
		}
		id, ok := r.Uint(), r.Bool()
		if !ok {
			t.Fatal("refused")
		}
		got[id] = r.String()
	}
	if got[1] != "first" || got[2] != "second" {
		t.Errorf("answers by request id = %v, want 1:first 2:second", got)
	}

	// The caller's side of the same rule: a peer that answers a call with a
	// stale answer first and the real one second.
	stale := startCountingServer(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			payload, err := ReadFrame(conn, DefaultMaxFrame)
			if err != nil {
				return
			}
			_, kind, r, _ := BeginFrame(payload)
			id := r.Uint()
			for _, ans := range []struct {
				id   uint64
				body string
			}{{id + 100, "stale"}, {id, "fresh"}} {
				buf, _ := replyFrame("peer", kind+1, ans.id, DefaultMaxFrame, nil, func(w *wire.Writer) { w.String(ans.body) })
				if _, err := conn.Write(buf); err != nil {
					return
				}
			}
		}
	})
	c := toyCaller(t, stale.ln.Addr().String())
	for round := range 2 { // the second call finds the first call's fresh answer consumed, nothing left over
		var out string
		err := c.Call("peer", toyEcho, nil, func(r *wire.Reader) { out = r.String() })
		if err != nil || out != "fresh" {
			t.Fatalf("round %d: got %q, %v; want the answer carrying this call's id", round, out, err)
		}
	}
}

// TestServerCloseWaitsForHandler: Close returns once a handler parked on a
// read loop returns, not before; and a Reply kept past Close is dropped.
func TestServerCloseWaitsForHandler(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var kept Reply
	srv := &Server{ID: "toy"}
	srv.Handle(toyPark, func(types.NodeID, *wire.Reader) func(Reply) {
		return func(reply Reply) {
			kept = reply
			close(entered)
			<-release
		}
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawFrame(t, toyPark, 1, nil)); err != nil {
		t.Fatal(err)
	}
	<-entered

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a handler still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the handler did")
	}
	srv.Close() // idempotent

	kept(nil, func(w *wire.Writer) { w.String("too late") }) // must not panic
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if payload, err := ReadFrame(conn, DefaultMaxFrame); err == nil {
		t.Errorf("an answer made after Close reached the client: %x", payload)
	}
}
