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

// FuzzAuditCacheDecode drives the cache body parser with arbitrary bytes.
// The cache lives in local files an attacker (or bit rot) can rewrite, and
// the integrity prefix only guards against accidental corruption —
// decodeRecording itself must never panic and must bound every allocation,
// whatever the bytes. An accepted body is of the current version, holds
// machine outputs and nothing else, and re-encodes stably: its canonical
// encoding decodes to the same encoding.
func FuzzAuditCacheDecode(f *testing.F) {
	real := (&recording{steps: [][]types.Output{
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
	if _, err := decodeRecording(v1AuditBody); err == nil {
		f.Fatal("a version 1 body decodes")
	}
	f.Add(v1AuditBody)

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := decodeRecording(raw)
		if err != nil {
			return
		}
		if raw[0] != auditCacheVersion {
			t.Fatalf("accepted a body of version %d", raw[0])
		}
		enc := rec.encode()
		rec2, err := decodeRecording(enc)
		if err != nil {
			t.Fatalf("accepted body does not re-decode: %v", err)
		}
		if string(rec2.encode()) != string(enc) {
			t.Fatal("audit body re-encoding is not stable")
		}
	})
}
