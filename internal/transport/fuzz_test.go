package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/types"
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

// FuzzFrameDecode feeds arbitrary byte streams to the inbound frame path —
// length prefix, sender, kind byte, packet body — exactly as a connection
// handler consumes them. Every byte is adversary-controlled (any peer can
// connect); the decoder must return checked errors, never panic, and never
// let the length prefix drive an allocation past the frame bound.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(rd, fuzzMaxFrame)
			if err != nil {
				return // checked rejection ends the stream, as in serveConn
			}
			if len(payload) > fuzzMaxFrame {
				t.Fatalf("ReadFrame returned %d bytes past the %d bound", len(payload), fuzzMaxFrame)
			}
			from, kind, r, err := BeginFrame(payload)
			if err != nil {
				return
			}
			if isRPCKind(kind) {
				// The RPC dispatch path decodes its own body; here it is
				// enough that header parsing was checked.
				continue
			}
			pkt, err := decodePacketBody(kind, r)
			if err != nil {
				return
			}
			// Whatever decodes must re-encode: the node's retransmit path
			// frames stored packets, and a decodable-but-unencodable packet
			// would turn a hostile input into a local failure later.
			if _, err := encodePacketFrame(from, pkt, DefaultMaxFrame); err != nil {
				t.Fatalf("decoded packet does not re-encode: %v", err)
			}
		}
	})
}
