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

// TestTrailingByteRejected is the frontend's row of the check transport runs
// over a Cluster member's kinds: for every kind registered here, a valid
// request is answered and the same request plus one byte drops the
// connection before admission sees it.
func TestTrailingByteRejected(t *testing.T) {
	cluster := transport.NewCluster()
	defer cluster.Close()
	srv, err := Serve(Config{Cluster: cluster, Base: core.DefaultConfig(), Dir: core.NewDirectory(),
		Factory: mincost.Factory(), Sessions: 1}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for kind := range srv.handlers() {
		body, ok := frontRequests[kind]
		if !ok {
			t.Errorf("kind %#x is registered and has no sample request in frontRequests", kind)
			continue
		}
		for _, extra := range [][]byte{nil, {0}} {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			w := wire.NewWriter(64)
			w.Raw([]byte{0, 0, 0, 0})
			w.String("raw")
			w.Byte(kind)
			w.Uint(1) // reqID
			body(w)
			w.Raw(extra)
			buf, err := transport.FinishFrame(w, transport.DefaultMaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(buf); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = transport.ReadFrame(conn, transport.DefaultMaxFrame)
			conn.Close()
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("kind %#x: neither answered nor dropped in 5s", kind)
			}
			if answered := err == nil; answered != (extra == nil) {
				t.Errorf("kind %#x with %d trailing bytes: answered = %v", kind, len(extra), answered)
			}
		}
	}
	if st := srv.Stats(); st.Served+st.Failed != 2 || st.Shed+st.Expired != 0 {
		t.Errorf("stats %v: want exactly the two valid queries run, none of the three rejected frames", st)
	}
}
