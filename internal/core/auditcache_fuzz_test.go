package core

import (
	"testing"

	"repro/internal/types"
)

// FuzzAuditCacheDecode drives the cached-audit body parser with arbitrary
// bytes. The cache lives in local files an attacker (or bit rot) can
// rewrite, and the integrity prefix only guards against accidental
// corruption — decodeAuditBody itself must never panic and must bound every
// allocation, whatever the bytes. An accepted body must re-encode stably:
// its canonical encoding decodes to the same encoding.
func FuzzAuditCacheDecode(f *testing.F) {
	ops := []replayOp{
		{kind: opEvent},
		{kind: opEvent, outs: []types.Output{{
			Kind: types.OutDerive, Rule: "r",
			Tuple: types.MakeTuple("d", types.N("n1"), types.I(7)),
			Body:  []types.Tuple{types.MakeTuple("b", types.I(1))},
			First: true,
		}}},
		{kind: opSeedExist, seed: &seedOp{node: "n1", tup: types.MakeTuple("s", types.I(2)), t: 5}},
		{kind: opSeedBelieve, seed: &seedOp{node: "n1", origin: "n2", tup: types.MakeTuple("s", types.I(3)), t: 6}},
		{kind: opImplied, commit: &impliedCommit{node: "n2", seq: 4,
			hash: []byte{1, 2, 3}, t: 7, reporter: "n1",
			msgs: []types.Message{{Src: "n1", Dst: "n2", Pol: types.PolAppear,
				Tuple: types.MakeTuple("m", types.I(9)), SendTime: 7, Seq: 4}},
		}},
	}
	real := encodeAuditBody(true, []byte{9, 9, 9}, 42, ops)
	f.Add(real)
	f.Add(real[:len(real)-4]) // torn
	doctored := append([]byte(nil), real...)
	doctored[len(doctored)/2] ^= 0xff
	f.Add(doctored)
	f.Add(encodeAuditBody(false, nil, 0, nil))

	f.Fuzz(func(t *testing.T, raw []byte) {
		ca, err := decodeAuditBody(raw)
		if err != nil {
			return
		}
		enc := encodeAuditBody(ca.hadMachine, ca.snapshot, ca.endTime, ca.ops)
		ca2, err := decodeAuditBody(enc)
		if err != nil {
			t.Fatalf("accepted body does not re-decode: %v", err)
		}
		enc2 := encodeAuditBody(ca2.hadMachine, ca2.snapshot, ca2.endTime, ca2.ops)
		if string(enc2) != string(enc) {
			t.Fatal("audit body re-encoding is not stable")
		}
		for i := range ca.ops {
			if ca.ops[i].kind == opFail {
				t.Fatalf("accepted body carries a failure op at %d", i)
			}
		}
	})
}
