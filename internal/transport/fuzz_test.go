package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wire"
)

// fuzzMaxFrame keeps fuzz allocations bounded without weakening the check:
// the decoder must enforce whatever bound it is given.
const fuzzMaxFrame = 64 << 10

// frame wraps a payload in the 4-byte length prefix the wire carries.
func frame(payload []byte) []byte {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	return buf
}

// memberServer is a Server carrying a Cluster member's eight registrations
// and no listener: decode reaches every kind's decode half, and nothing can
// run (the member has no node).
func memberServer() *Server {
	srv := new(Server)
	NewCluster().register(srv, new(member))
	return srv
}

// FuzzFrameDecode feeds arbitrary byte streams to the inbound frame path —
// length prefix, sender, kind byte, request id, body — exactly as a server's
// read loop consumes them, through the one entry point every kind shares.
// Every byte is adversary-controlled (any peer can connect); the decoder must
// return checked errors, never panic, and never let the length prefix drive
// an allocation past the frame bound.
func FuzzFrameDecode(f *testing.F) {
	corpus := adversary.WireCorpus()
	for _, group := range [][][]byte{corpus.Entries, corpus.Segments, corpus.Requests, corpus.Responses} {
		for _, b := range group {
			f.Add(frame(b))
		}
	}
	// Well-formed envelope and ack frames, so mutations explore the deep
	// decode paths and not just the length check.
	msg := types.Message{Src: "b", Dst: "a", Pol: types.PolAppear,
		Tuple: types.MakeTuple("t", types.N("a"), types.I(1)), SendTime: types.Second, Seq: 1}
	env, err := encodePacketFrame("b", &core.Packet{Kind: core.PktEnvelope, Envelope: &core.Envelope{
		Msgs: []types.Message{msg}, PrevHash: []byte{1, 2}, T: types.Second, Sig: []byte{3, 4}, Seq: 5,
	}}, fuzzMaxFrame)
	if err != nil {
		f.Fatal(err)
	}
	ack, err := encodePacketFrame("a", &core.Packet{Kind: core.PktAck, Ack: &core.Ack{
		IDs: []types.MessageID{msg.ID()}, PrevHash: []byte{6}, T: 2 * types.Second, Sig: []byte{7}, Seq: 9,
	}}, fuzzMaxFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	f.Add(ack)
	f.Add(append(env, ack...)) // two frames back to back
	// Hostile length prefixes: oversized claim, truncated body, empty frame.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 0x01, 0x02})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})

	srv := memberServer()
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(rd, fuzzMaxFrame)
			if err != nil {
				return // checked rejection ends the stream, as in Server.serve
			}
			if len(payload) > fuzzMaxFrame {
				t.Fatalf("ReadFrame returned %d bytes past the %d bound", len(payload), fuzzMaxFrame)
			}
			in, err := srv.decode(payload)
			if err != nil {
				return
			}
			if in.run == nil {
				t.Fatalf("kind %#x decoded to nothing to run", in.kind)
			}
			if !in.oneWay {
				continue
			}
			// Whatever packet decodes must re-encode: the node's retransmit
			// path frames stored packets, and a decodable-but-unencodable
			// packet would turn a hostile input into a local failure later.
			from, kind, r, _ := BeginFrame(payload)
			if _, err := encodePacketFrame(from, decodePacket(kind, r), DefaultMaxFrame); err != nil {
				t.Fatalf("decoded packet does not re-encode: %v", err)
			}
		}
	})
}

// wireValue is a request body with a codec of its own.
type wireValue interface {
	wire.Marshaler
	wire.Unmarshaler
}

// requestBodies are the typed request bodies among a member's kinds; the
// other kinds read bare fields.
var requestBodies = map[byte]func() wireValue{
	frameEnvelope:    func() wireValue { return new(core.Envelope) },
	frameAck:         func() wireValue { return new(core.Ack) },
	frameRetrieveReq: func() wireValue { return new(core.RetrieveRequest) },
}

// goldenBodies returns the request bodies (past sender, kind and request id)
// of the frames in testdata/wire.golden, every one of a kind srv registers.
func goldenBodies(t testing.TB, srv *Server) [][]byte {
	golden, err := os.ReadFile(filepath.Join("testdata", "wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		fields := strings.Fields(line)
		if fields[len(fields)-2] == "answer" {
			continue
		}
		frame, err := hex.DecodeString(fields[len(fields)-1])
		if err != nil {
			t.Fatal(err)
		}
		_, kind, r, err := BeginFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		reg, ok := srv.kinds[kind]
		if !ok {
			t.Fatalf("golden frame of unregistered kind %#x", kind)
		}
		if !reg.oneWay {
			r.Uint()
		}
		bodies = append(bodies, r.Raw(r.Remaining()))
	}
	return bodies
}

// FuzzRequestDecode feeds arbitrary bodies to the decode half of every kind
// a Cluster member registers — the two data kinds and the six audit kinds —
// and never runs anything: whatever a hostile peer sends, deciding whether
// it is a request touches no node. A body a kind accepts must re-encode. The
// seeds hold a valid body of every kind (memberRequests) and the golden
// file's requests.
func FuzzRequestDecode(f *testing.F) {
	srv := memberServer()
	for _, b := range adversary.WireCorpus().Requests {
		f.Add(b)
	}
	for _, body := range memberRequests {
		w := wire.NewWriter(64)
		body(w)
		f.Add(w.Bytes())
	}
	for _, b := range goldenBodies(f, srv) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a count of 2^32 with nothing behind it

	f.Fuzz(func(t *testing.T, body []byte) {
		for kind, reg := range srv.kinds {
			r := wire.NewReader(body)
			run := reg.h("fuzz", r)
			if r.Finish() != nil {
				continue
			}
			if run == nil {
				t.Fatalf("kind %#x accepted %x and returned nothing to run", kind, body)
			}
			newBody, typed := requestBodies[kind]
			if !typed {
				continue
			}
			req := newBody()
			if err := wire.Decode(body, req); err != nil {
				t.Fatalf("kind %#x accepted %x, its codec does not: %v", kind, body, err)
			}
			if err := wire.Decode(wire.Encode(req), newBody()); err != nil {
				t.Fatalf("kind %#x: decoded request does not re-encode: %v", kind, err)
			}
		}
	})
}
