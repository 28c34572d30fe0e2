package queryfront

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// fuzzFrame assembles a query frame the way the client does.
func fuzzFrame(from string, kind byte, body func(*wire.Writer)) []byte {
	w := wire.NewWriter(256)
	w.Raw([]byte{0, 0, 0, 0})
	w.String(from)
	w.Byte(kind)
	w.Uint(1) // reqID
	if body != nil {
		body(w)
	}
	buf, err := transport.FinishFrame(w, transport.DefaultMaxFrame)
	if err != nil {
		panic(err)
	}
	return buf[4:] // the payload, past the length prefix
}

// Sample requests, shared by the two fuzz targets' seeds.
var (
	sampleExplain = ExplainRequest{
		Node:  "as10",
		Tuple: types.MakeTuple("route", types.N("as10"), types.N("as51"), types.I(2)),
		Mode:  1, Direction: 1, At: 5, Scope: 8, StartHint: 3,
	}
	sampleAudit = AuditRequest{Targets: []types.NodeID{"as10", "as20", "as30"}}
)

// hostileAuditBody is an audit request claiming 2^32 targets in five bytes.
func hostileAuditBody(w *wire.Writer) { w.Uint(1 << 32) }

// FuzzQueryFrameDecode feeds arbitrary bytes to the response-body decoders
// (requests reach theirs through FuzzRequestDecode). Every byte is
// adversary-controlled — a hostile frontend can answer a client: decoding
// must return checked errors — never panic, and never let a hostile count
// drive an allocation unbounded by the input size.
func FuzzQueryFrameDecode(f *testing.F) {
	f.Add(fuzzFrame("c", FrameExplainReq, sampleExplain.MarshalWire))
	f.Add(fuzzFrame("c", FrameAuditReq, sampleAudit.MarshalWire))
	f.Add(fuzzFrame("c", FrameStatsReq, nil))

	// Response bodies, so mutations explore the client-side decoders too.
	res := ExplainResult{
		Rendered: "tree", Vertices: 3,
		Faulty:      []types.NodeID{"as30"},
		Unreachable: []Lead{{Node: "as20", Err: "partitioned"}},
		Elapsed:     time.Millisecond,
		Audited:     []AuditedSpan{{Node: "as30", From: 1, To: 40, Through: 3 * types.Second}},
	}
	f.Add(fuzzFrame("front", FrameExplainResp, res.MarshalWire))
	ares := AuditResult{
		Failures:    []core.Failure{{Node: "as30", Seq: 7, Reason: "replay mismatch"}},
		RedHosts:    []types.NodeID{"as30"},
		Unreachable: []Lead{{Node: "as20", Err: "partitioned"}},
		Notes:       []core.MissingAckNote{{Reporter: "as10", ID: types.MessageID{Src: "as10", Dst: "as20", Seq: 4}}},
		Elapsed:     time.Second,
	}
	f.Add(fuzzFrame("front", FrameAuditResp, ares.MarshalWire))
	stats := FrontStats{Sessions: 4, QueueCap: 16, Served: 9, Shed: 2,
		Kinds: []KindStats{{Kind: "audit", Count: 9, P50: time.Millisecond, P99: time.Second}}}
	f.Add(fuzzFrame("front", FrameStatsResp, stats.MarshalWire))

	// Hostile counts: an audit request claiming 2^32 targets in 16 bytes,
	// and truncated bodies.
	f.Add(fuzzFrame("c", FrameAuditReq, hostileAuditBody))
	f.Add(fuzzFrame("c", FrameExplainReq, nil)) // truncated: no body at all

	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _, r, err := transport.BeginFrame(payload)
		if err != nil {
			return
		}
		r.Uint() // reqID
		if !r.Bool() {
			_ = r.String()
			return
		}
		rest := r.Raw(r.Remaining())
		if r.Err() != nil {
			return
		}
		var er ExplainResult
		_ = er.UnmarshalWire(wire.NewReader(rest))
		var ar AuditResult
		_ = ar.UnmarshalWire(wire.NewReader(rest))
		var fs FrontStats
		_ = fs.UnmarshalWire(wire.NewReader(rest))
	})
}

// FuzzRequestDecode feeds arbitrary bodies to the decode half of every kind
// the frontend registers — through the Handler values themselves, no socket
// — and never runs anything: whatever a hostile client sends, deciding
// whether it is a query touches neither the admission queue nor a querier. A
// body a kind accepts is within the request bounds and re-encodes.
func FuzzRequestDecode(f *testing.F) {
	for _, body := range []func(*wire.Writer){sampleExplain.MarshalWire, sampleAudit.MarshalWire, hostileAuditBody} {
		w := wire.NewWriter(64)
		body(w)
		f.Add(w.Bytes())
	}
	f.Add([]byte{}) // stats, and everyone else's truncation

	handlers := new(Server).handlers()
	f.Fuzz(func(t *testing.T, body []byte) {
		for kind, h := range handlers {
			r := wire.NewReader(body)
			run := h("fuzz", r)
			if r.Finish() != nil {
				continue
			}
			if run == nil {
				t.Fatalf("kind %#x accepted %x and returned nothing to run", kind, body)
			}
			switch kind {
			case FrameExplainReq:
				var req ExplainRequest
				if err := wire.Decode(body, &req); err != nil {
					t.Fatalf("explain accepted %x, its codec does not: %v", body, err)
				}
				if err := wire.Decode(wire.Encode(req), new(ExplainRequest)); err != nil {
					t.Fatalf("decoded explain request does not re-encode: %v", err)
				}
			case FrameAuditReq:
				var req AuditRequest
				if err := wire.Decode(body, &req); err != nil {
					t.Fatalf("audit accepted %x, its codec does not: %v", body, err)
				}
				if len(req.Targets) > maxTargets {
					t.Fatalf("decoded %d targets past the bound", len(req.Targets))
				}
				if err := wire.Decode(wire.Encode(req), new(AuditRequest)); err != nil {
					t.Fatalf("decoded audit request does not re-encode: %v", err)
				}
			}
		}
	})
}
