package queryfront

import (
	"net"
	"testing"
	"time"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// frontRequests holds one valid request body per kind the frontend
// registers. TestTrailingByteRejected ranges over the registrations, not
// over this table, so a kind added without a sample here fails the test.
var frontRequests = map[byte]func(*wire.Writer){
	FrameStatsReq:   func(*wire.Writer) {},
	FrameExplainReq: sampleExplain.MarshalWire,
	FrameAuditReq:   sampleAudit.MarshalWire,
}

// bareFront serves a frontend over an empty cluster: enough to answer every
// kind (an Explain with "cannot audit"), with nothing to dial.
func bareFront(t *testing.T) *Server {
	t.Helper()
	cluster := transport.NewCluster()
	t.Cleanup(cluster.Close)
	srv, err := Serve(Config{Cluster: cluster, Base: core.DefaultConfig(), Dir: core.NewDirectory(),
		Factory: mincost.Factory(), Sessions: 1}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// rawCall writes one request frame of the given kind and body on a fresh
// connection and reports whether the frontend answered it (an in-band error
// is an answer) or dropped the connection.
func rawCall(t *testing.T, srv *Server, kind byte, body []byte) (answered bool) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := wire.NewWriter(64)
	w.Raw([]byte{0, 0, 0, 0})
	w.String("raw")
	w.Byte(kind)
	w.Uint(1) // reqID
	w.Raw(body)
	buf, err := transport.FinishFrame(w, transport.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = transport.ReadFrame(conn, transport.DefaultMaxFrame)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("kind %#x: neither answered nor dropped in 5s", kind)
	}
	return err == nil
}

// TestTrailingByteRejected is the frontend's row of the check transport runs
// over a Cluster member's kinds: for every kind registered here, a valid
// request is answered and the same request plus one byte drops the
// connection before admission sees it.
func TestTrailingByteRejected(t *testing.T) {
	srv := bareFront(t)
	for kind := range srv.handlers() {
		body, ok := frontRequests[kind]
		if !ok {
			t.Errorf("kind %#x is registered and has no sample request in frontRequests", kind)
			continue
		}
		for _, extra := range [][]byte{nil, {0}} {
			w := wire.NewWriter(64)
			body(w)
			w.Raw(extra)
			if answered := rawCall(t, srv, kind, w.Bytes()); answered != (extra == nil) {
				t.Errorf("kind %#x with %d trailing bytes: answered = %v", kind, len(extra), answered)
			}
		}
	}
	if st := srv.Stats(); st.Served+st.Failed != 2 || st.Shed+st.Expired != 0 {
		t.Errorf("stats %v: want exactly the two valid queries run, none of the three rejected frames", st)
	}
}

// TestExplainReservedByteRefused: the byte of an Explain request that once
// switched the consistency check off is reserved, and a request that sets it
// is malformed — dropped before admission like an unknown mode or direction —
// where it used to be served without the §5.5 equivocation check, in an
// answer that did not say so.
func TestExplainReservedByteRefused(t *testing.T) {
	srv := bareFront(t)
	body := wire.Encode(sampleExplain)
	at := len(body) - 2 // before StartHint, a one-byte varint in the sample
	if body[at] != 0 {
		t.Fatalf("byte %d of the sample request is %#x: not the reserved byte", at, body[at])
	}
	if !rawCall(t, srv, FrameExplainReq, body) {
		t.Fatal("the sample request itself was dropped")
	}
	body[at] = 1
	if err := wire.Decode(body, new(ExplainRequest)); err == nil {
		t.Error("ExplainRequest.UnmarshalWire accepted a set reserved byte")
	}
	if rawCall(t, srv, FrameExplainReq, body) {
		t.Error("a request with the reserved byte set was answered")
	}
	if st := srv.Stats(); st.Served+st.Failed != 1 || st.Shed+st.Expired != 0 {
		t.Errorf("stats %v: want only the well-formed request admitted", st)
	}
}
