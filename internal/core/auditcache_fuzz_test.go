package core

import (
	"encoding/hex"
	"testing"

	"repro/internal/types"
)

// v1AuditBody is a body as the version 1 format wrote it (machine flag,
// end-state snapshot, end time, then the whole op stream: two events, a
// seed and an implied commitment), generated by the last commit that had
// that encoder. This format reads none of it.
var v1AuditBody, _ = hex.DecodeString("0101030909095404010001010001640202026e31010e01720101620101020001000002026e3101730101040a04026e3204030102030e026e3101026e31026e3200016d0101120e04")

// v2AuditBody is a body as the version 2 format wrote it (the outputs of
// three steps and nothing else: no chain, no step counts), generated by the
// last commit that had that encoder. This format reads none of it either.
var v2AuditBody, _ = hex.DecodeString("020300020001640202026e31010e017201016201010200010000020000000000000001026e31026e3200016d0101120e04010101640202026e31010e01720000000100")

// fuzzHashSize is the hash size the fuzzed bodies are parsed with: short, so
// that arbitrary bytes make a table now and then.
const fuzzHashSize = 4

// FuzzAuditCacheDecode drives the cache body parser with arbitrary bytes.
// The cache lives in local files an attacker (or bit rot) can rewrite, and
// the integrity prefix only guards against accidental corruption —
// decodeRecording itself must never panic and must bound every allocation,
// whatever the bytes. An accepted body is of the current version, counts the
// steps it holds, and re-encodes stably: its canonical encoding decodes to
// the same encoding. Every prefix of it decodes as well, to the chain of the
// whole and to exactly the steps its entries took; one entry past the end does
// not.
func FuzzAuditCacheDecode(f *testing.F) {
	real := (&recording{size: fuzzHashSize, chain: []byte("h001h002h003h004"), cum: []int{1, 1, 2, 3}, steps: [][]types.Output{
		nil,
		{{
			Kind: types.OutDerive, Rule: "r",
			Tuple: types.MakeTuple("d", types.N("n1"), types.I(7)),
			Body:  []types.Tuple{types.MakeTuple("b", types.I(1))},
			First: true,
		}, {
			Kind: types.OutSend,
			Msg: &types.Message{Src: "n1", Dst: "n2", Pol: types.PolAppear,
				Tuple: types.MakeTuple("m", types.I(9)), SendTime: 7, Seq: 4},
		}},
		{{Kind: types.OutUnderive, Rule: "r", Tuple: types.MakeTuple("d", types.N("n1"), types.I(7)), Last: true}},
	}}).encode()
	f.Add(real)
	f.Add(real[:len(real)-4]) // torn
	doctored := append([]byte(nil), real...)
	doctored[len(doctored)/2] ^= 0xff
	f.Add(doctored)
	f.Add((&recording{}).encode())
	for v, body := range [][]byte{v1AuditBody, v2AuditBody} {
		if _, err := decodeWhole(body, fuzzHashSize); err == nil {
			f.Fatalf("a version %d body decodes", v+1)
		}
	}
	f.Add(v1AuditBody)
	f.Add(v2AuditBody)
	miscounted := (&recording{size: fuzzHashSize, chain: []byte("h001"), cum: []int{2}, steps: [][]types.Output{nil}}).encode()
	if _, err := decodeWhole(miscounted, fuzzHashSize); err == nil {
		f.Fatal("a body whose entries count two steps and which holds one decodes")
	}
	f.Add(miscounted)

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := decodeWhole(raw, fuzzHashSize)
		if err != nil {
			return
		}
		if raw[0] != auditCacheVersion {
			t.Fatalf("accepted a body of version %d", raw[0])
		}
		if len(rec.chain) != len(rec.cum)*fuzzHashSize {
			t.Fatalf("%d entries with %d bytes of chain", len(rec.cum), len(rec.chain))
		}
		if n := len(rec.cum); n > 0 && rec.cum[n-1] != len(rec.steps) {
			t.Fatalf("entries count %d steps, body holds %d", rec.cum[n-1], len(rec.steps))
		}
		enc := rec.encode()
		rec2, err := decodeWhole(enc, fuzzHashSize)
		if err != nil {
			t.Fatalf("accepted body does not re-decode: %v", err)
		}
		if string(rec2.encode()) != string(enc) {
			t.Fatal("audit body re-encoding is not stable")
		}
		for n := range rec.cum {
			pre, err := decodeRecording(raw, fuzzHashSize, n)
			if err != nil {
				t.Fatalf("prefix of %d entries of an accepted body: %v", n, err)
			}
			want := 0
			if n > 0 {
				want = rec.cum[n-1]
			}
			if len(pre.steps) != want || string(pre.chain) != string(rec.chain) {
				t.Fatalf("prefix of %d entries plays %d steps, want %d", n, len(pre.steps), want)
			}
		}
		if _, err := decodeRecording(raw, fuzzHashSize, len(rec.cum)+1); err == nil {
			t.Fatal("a body answers for more entries than it records")
		}
	})
}
