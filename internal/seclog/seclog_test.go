package seclog

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/types"
	"repro/internal/wire"
)

var testSuite = cryptoutil.Ed25519SHA256

func testKey(t *testing.T, seed int64) cryptoutil.PrivateKey {
	t.Helper()
	k, err := testSuite.GenerateKey(seed)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func newTestLog(t *testing.T) *Log {
	t.Helper()
	return New("n1", testSuite, testKey(t, 1), nil)
}

func insEntry(at types.Time, rel string, k int64) *Entry {
	return &Entry{T: at, Type: EIns, Tuple: types.MakeTuple(rel, types.N("n1"), types.I(k))}
}

func sndEntry(at types.Time, seq uint64) *Entry {
	return &Entry{T: at, Type: ESnd, Msgs: []types.Message{{
		Src: "n1", Dst: "n2", Pol: types.PolAppear,
		Tuple: types.MakeTuple("x", types.N("n2"), types.I(int64(seq))), SendTime: at, Seq: seq,
	}}}
}

func TestAppendAndAuthenticate(t *testing.T) {
	l := newTestLog(t)
	for i := 1; i <= 5; i++ {
		seq := l.Append(insEntry(types.Time(i), "a", int64(i)))
		if seq != uint64(i) {
			t.Fatalf("Append returned seq %d, want %d", seq, i)
		}
	}
	auth, err := l.Authenticator()
	if err != nil {
		t.Fatal(err)
	}
	if auth.Seq != 5 || auth.Node != "n1" {
		t.Errorf("auth = %+v", auth)
	}
	if !auth.Verify(l.key.Public()) {
		t.Error("authenticator does not verify")
	}
	// A different key must not verify it.
	if auth.Verify(testKey(t, 2).Public()) {
		t.Error("authenticator verified under wrong key")
	}
}

func TestSegmentVerify(t *testing.T) {
	l := newTestLog(t)
	for i := 1; i <= 10; i++ {
		l.Append(insEntry(types.Time(i), "a", int64(i)))
	}
	auth, err := l.Authenticator()
	if err != nil {
		t.Fatal(err)
	}
	seg, err := l.Segment(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := seg.VerifyAgainst(testSuite, nil, l.key.Public(), auth)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hashes[9], auth.Hash) {
		t.Error("verified hashes do not end at the authenticator")
	}
}

func TestTamperedSegmentRejected(t *testing.T) {
	l := newTestLog(t)
	for i := 1; i <= 10; i++ {
		l.Append(insEntry(types.Time(i), "a", int64(i)))
	}
	auth, _ := l.Authenticator()
	seg, _ := l.Segment(1, 10)

	// Replace one entry: the chain must break.
	tampered := *seg
	tampered.Entries = append([]*Entry(nil), seg.Entries...)
	tampered.Entries[4] = insEntry(5, "a", 999)
	if _, err := tampered.VerifyAgainst(testSuite, nil, l.key.Public(), auth); err == nil {
		t.Error("tampered entry accepted")
	}

	// Drop an entry: also rejected.
	dropped := *seg
	dropped.Entries = seg.Entries[:9]
	if _, err := dropped.VerifyAgainst(testSuite, nil, l.key.Public(), auth); err == nil {
		t.Error("dropped entry accepted")
	}
}

func TestMidSegmentAuthenticator(t *testing.T) {
	l := newTestLog(t)
	for i := 1; i <= 10; i++ {
		l.Append(insEntry(types.Time(i), "a", int64(i)))
	}
	auth, err := l.AuthenticatorAt(7)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := l.Segment(1, 10)
	if _, err := seg.VerifyAgainst(testSuite, nil, l.key.Public(), auth); err != nil {
		t.Errorf("mid-segment authenticator rejected: %v", err)
	}
}

func TestSegmentFromOffset(t *testing.T) {
	l := newTestLog(t)
	for i := 1; i <= 10; i++ {
		l.Append(insEntry(types.Time(i), "a", int64(i)))
	}
	auth, _ := l.Authenticator()
	seg, err := l.Segment(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.VerifyAgainst(testSuite, nil, l.key.Public(), auth); err != nil {
		t.Errorf("offset segment rejected: %v", err)
	}
	// Lying about the base hash must be caught.
	seg.BaseHash = testSuite.Hash([]byte("lie"))
	if _, err := seg.VerifyAgainst(testSuite, nil, l.key.Public(), auth); err == nil {
		t.Error("segment with forged base hash accepted")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	entries := []*Entry{
		insEntry(5, "a", 1),
		{T: 6, Type: EDel, Tuple: types.MakeTuple("a", types.N("n1"), types.I(1))},
		sndEntry(7, 1),
		{T: 8, Type: ERcv, Msgs: sndEntry(7, 2).Msgs, PeerPrevHash: []byte{1, 2},
			PeerTime: 7, PeerSig: []byte{3, 4}, PeerSeq: 9},
		{T: 9, Type: EAck, AckIDs: []types.MessageID{{Src: "n1", Dst: "n2", Seq: 1}},
			PeerPrevHash: []byte{5}, PeerTime: 8, PeerSig: []byte{6}, PeerSeq: 11},
		{T: 10, Type: EIns, Tuple: types.MakeTuple("m", types.N("n1")),
			MaybeRule: "M", MaybeBody: []types.Tuple{types.MakeTuple("b", types.N("n1"))},
			Replaces: []types.Tuple{types.MakeTuple("m", types.N("n1"), types.I(0))}},
	}
	for _, e := range entries {
		buf := wire.Encode(e)
		var got Entry
		if err := wire.Decode(buf, &got); err != nil {
			t.Fatalf("%s: %v", e.Type, err)
		}
		if !bytes.Equal(wire.Encode(&got), buf) {
			t.Errorf("%s: round trip not stable", e.Type)
		}
	}
}

func TestCheckpointRoundTripAndVerify(t *testing.T) {
	items := []ExtantItem{
		{Tuple: types.MakeTuple("a", types.N("n1"), types.I(1)), Appeared: 3, Local: true},
		{Tuple: types.MakeTuple("b", types.N("n1")), Appeared: 4,
			Believed: []BelievedRecord{{Origin: "n2", Since: 4}}},
	}
	c := BuildCheckpoint(testSuite, nil, []byte("machine-state"), items)
	if err := c.VerifyFull(testSuite, nil); err != nil {
		t.Fatalf("fresh checkpoint does not verify: %v", err)
	}
	buf := wire.Encode(c)
	var got Checkpoint
	if err := wire.Decode(buf, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyFull(testSuite, nil); err != nil {
		t.Fatalf("decoded checkpoint does not verify: %v", err)
	}
	// Tampering with the payload must be detected.
	got.MachineState = []byte("evil-state")
	if err := got.VerifyFull(testSuite, nil); err == nil {
		t.Error("tampered machine state accepted")
	}
	got.MachineState = []byte("machine-state")
	got.Items[0].Appeared = 99
	if err := got.VerifyFull(testSuite, nil); err == nil {
		t.Error("tampered item accepted")
	}
}

func TestCheckpointInChain(t *testing.T) {
	l := newTestLog(t)
	l.Append(insEntry(1, "a", 1))
	c := BuildCheckpoint(testSuite, nil, []byte("state"), nil)
	l.Append(&Entry{T: 2, Type: ECkpt, Ckpt: c})
	l.Append(insEntry(3, "a", 2))
	auth, _ := l.Authenticator()
	seg, _ := l.Segment(1, 3)
	if _, err := seg.VerifyAgainst(testSuite, nil, l.key.Public(), auth); err != nil {
		t.Fatalf("segment with checkpoint rejected: %v", err)
	}
	if got := l.LastCheckpointBefore(3); got != 2 {
		t.Errorf("LastCheckpointBefore(3) = %d, want 2", got)
	}
	if got := l.LastCheckpointBefore(1); got != 0 {
		t.Errorf("LastCheckpointBefore(1) = %d, want 0", got)
	}
}

func TestAuthSet(t *testing.T) {
	u := NewAuthSet()
	u.Add(Authenticator{Node: "a", Seq: 1, T: 10})
	u.Add(Authenticator{Node: "a", Seq: 3, T: 30})
	u.Add(Authenticator{Node: "b", Seq: 2, T: 20})
	if got := len(u.From("a")); got != 2 {
		t.Errorf("From(a) = %d", got)
	}
	in := u.FromInInterval("a", 5, 15)
	if len(in) != 1 || in[0].Seq != 1 {
		t.Errorf("FromInInterval = %v", in)
	}
	for _, c := range []struct{ n, wantFirst, wantLen uint64 }{{0, 1, 2}, {1, 3, 1}, {2, 0, 0}, {3, 1, 2}} {
		got, total := u.Since("a", c.n)
		if total != 2 || uint64(len(got)) != c.wantLen || (len(got) > 0 && got[0].Seq != c.wantFirst) {
			t.Errorf("Since(a, %d) = %v, %d", c.n, got, total)
		}
	}
	if got, total := u.Since("zz", 5); len(got) != 0 || total != 0 {
		t.Errorf("Since(zz, 5) = %v, %d", got, total)
	}
}

// TestMerkleRootPinned pins the checkpoint root's bytes: checkpoint entries
// commit to it, so a change to the domain bytes (0x00 leaf, 0x01 node) or to
// odd-node promotion would change every checkpointing log's hash chain.
func TestMerkleRootPinned(t *testing.T) {
	for _, c := range []struct {
		n    int
		root string
	}{
		{0, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
		{1, "149d9354e123f46c683947f46f8d8fdd7ee416fb17ea521acaf61d8e3c8c3a2d"},
		{2, "7e276c34756b44b65ba40ff98b4a72a6a56af9e75d649cdad7dc98be9459cb75"},
		{3, "29c5ddb153c57eaa07dc7795614ea660f6967ff71ab5d60f6e4cf2ed9ba6f70a"},
		{5, "baa6733f765d115e14da4b45188ff409af71852ce8b76ffdb1ee6647b82813c6"},
		{13, "9547b5d0bc6e3490718afbac69f8423c8b26c7074f3bff0c8ce580b51703ed44"},
	} {
		leaves := make([][]byte, c.n)
		for i := range leaves {
			leaves[i] = fmt.Appendf(nil, "item-%d", i)
		}
		if got := hex.EncodeToString(MerkleRoot(testSuite, leaves)); got != c.root {
			t.Errorf("root of %d leaves = %s, want %s", c.n, got, c.root)
		}
	}
}

func TestGrossBytesAccounting(t *testing.T) {
	l := newTestLog(t)
	e := insEntry(1, "a", 1)
	l.Append(e)
	if l.GrossBytes() != int64(e.WireSize()) {
		t.Errorf("GrossBytes = %d, want %d", l.GrossBytes(), e.WireSize())
	}
}
