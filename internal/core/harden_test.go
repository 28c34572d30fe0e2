package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
)

// stubMachine emits one send per inserted tuple, so inserts exercise the
// envelope/sign path without a rule engine.
type stubMachine struct {
	self types.NodeID
	seq  uint64
}

func (m *stubMachine) Step(ev types.Event) []types.Output {
	if ev.Kind != types.EvIns {
		return nil
	}
	m.seq++
	return []types.Output{{Kind: types.OutSend, Msg: &types.Message{
		Src: m.self, Dst: "peer", Pol: types.PolAppear, Tuple: ev.Tuple,
		SendTime: ev.Time, Seq: m.seq,
	}}}
}
func (m *stubMachine) Snapshot() []byte              { return nil }
func (m *stubMachine) Restore(snapshot []byte) error { return nil }

// failingKey signs successfully until broken, then fails every signature.
type failingKey struct {
	inner  cryptoutil.PrivateKey
	broken bool
}

func (k *failingKey) Sign(msg []byte) ([]byte, error) {
	if k.broken {
		return nil, errors.New("hsm unavailable")
	}
	return k.inner.Sign(msg)
}
func (k *failingKey) Public() cryptoutil.PublicKey { return k.inner.Public() }

type fixedClock struct{ t types.Time }

func (c *fixedClock) Now() types.Time { c.t += types.Millisecond; return c.t }

func testNode(t *testing.T, cfg Config, key cryptoutil.PrivateKey) *Node {
	t.Helper()
	if key == nil {
		var err error
		key, err = cryptoutil.PooledKey(cfg.suite(), 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := NewDirectory()
	dir.Register("n1", key.Public())
	n, err := NewNode("n1", cfg, key, dir, NewMaintainer(), &fixedClock{}, nil, &stubMachine{self: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func ins(k int64) types.Tuple { return types.MakeTuple("t", types.N("n1"), types.I(k)) }

// TestRetrieveMalformedRequest feeds HandleRetrieve adversarial sequence
// numbers: every case must yield an error or a valid segment, never a panic.
func TestRetrieveMalformedRequest(t *testing.T) {
	n := testNode(t, DefaultConfig(), nil)
	for i := int64(1); i <= 10; i++ {
		if err := n.InsertBase(ins(i)); err != nil {
			t.Fatal(err)
		}
	}
	head := n.Log.Len()

	// Evidence beyond the head cannot be covered.
	if _, err := n.HandleRetrieve(RetrieveRequest{
		Auth: seclog.Authenticator{Node: "n1", Seq: head + 1000}, EndTime: types.Millisecond,
	}); err == nil {
		t.Error("evidence beyond head served")
	}
	// A sane request still works.
	resp, err := n.HandleRetrieve(RetrieveRequest{Auth: seclog.Authenticator{Node: "n1", Seq: head}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Segment.To() != head {
		t.Errorf("segment ends at %d, want %d", resp.Segment.To(), head)
	}
}

// TestSignFailureIsFaultNotPanic breaks a node's key mid-run: the affected
// operations return errors and Err() reports the fault, but nothing panics
// and the node keeps accepting work.
func TestSignFailureIsFaultNotPanic(t *testing.T) {
	inner, err := cryptoutil.PooledKey(DefaultConfig().suite(), 1)
	if err != nil {
		t.Fatal(err)
	}
	key := &failingKey{inner: inner}
	n := testNode(t, DefaultConfig(), key)

	if err := n.InsertBase(ins(1)); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}
	key.broken = true
	if err := n.InsertBase(ins(2)); err == nil {
		t.Fatal("insert with broken key reported no error")
	} else if !strings.Contains(err.Error(), "signing failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	if n.Err() == nil {
		t.Error("Err() not sticky after signing failure")
	}
	// The node survives: ticking and further inserts do not panic.
	_ = n.Tick()
	_ = n.InsertBase(ins(3))
	// The snd entries are in the log (audits will expose the unsent
	// envelopes); the log itself stays consistent.
	if n.Log.Len() == 0 {
		t.Error("log lost entries after fault")
	}
}

// TestAuditorRejectsMalformedResponses drives Prepare/Replay with responses
// a compromised node could return: nil segments, empty segments, foreign
// segments. All must fail cleanly and record evidence.
func TestAuditorRejectsMalformedResponses(t *testing.T) {
	cfg := DefaultConfig()
	key, err := cryptoutil.PooledKey(cfg.suite(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory()
	dir.Register("n1", key.Public())
	factory := func(self types.NodeID) types.Machine { return &stubMachine{self: self} }
	a := NewAuditor(cfg, dir, factory, nil)

	evidence := seclog.Authenticator{Node: "n1", Seq: 1}
	if err := a.Commit(a.Prepare("n1", &RetrieveResponse{}, evidence)); err == nil {
		t.Error("nil segment accepted")
	}
	a2 := NewAuditor(cfg, dir, factory, nil)
	if err := a2.Commit(a2.Prepare("n1", &RetrieveResponse{Segment: &seclog.SegmentData{Node: "n1", From: 0}}, evidence)); err == nil {
		t.Error("empty segment accepted")
	}
	a3 := NewAuditor(cfg, dir, factory, nil)
	if err := a3.Commit(a3.Prepare("n1", &RetrieveResponse{Segment: &seclog.SegmentData{Node: "other", From: 1}}, evidence)); err == nil {
		t.Error("foreign segment accepted")
	}
	if len(a3.Failures()) == 0 {
		t.Error("foreign segment recorded no failure evidence")
	}
}

// TestNewNodeStoreBacked exercises the cfg.LogDir path end to end: entries
// land in the store, survive a (simulated crash) reopen, and serve the same
// segment bytes.
func TestNewNodeStoreBacked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LogDir = t.TempDir()
	cfg.LogHotTail = 2
	n := testNode(t, cfg, nil)
	for i := int64(1); i <= 12; i++ {
		if err := n.InsertBase(ins(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Log.StoreBacked() {
		t.Fatal("log not store-backed")
	}
	if n.Log.ColdEntries() == 0 {
		t.Error("hot tail of 2 evicted nothing")
	}
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	// Hand the buffered appends to the OS (no fsync): the simulated crash
	// below then models a process dying after its writes reached the page
	// cache, which is what the pre-buffering store gave for free.
	if err := n.Log.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := seclog.Open(cfg.LogDir, n.ID, cfg.suite(), nil, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != n.Log.Len() {
		t.Fatalf("reopened %d entries, want %d", reopened.Len(), n.Log.Len())
	}

	// Restart the node itself through the recovery path: history is intact
	// (no O_TRUNC), timestamps stay monotone, and the chain continues.
	want := n.Log.Len()
	head := append([]byte(nil), n.Log.HeadHash()...)
	if err := n.Log.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.LogRecover = true
	n2 := testNode(t, cfg, nil)
	defer n2.Log.Close()
	if n2.Log.Len() != want {
		t.Fatalf("restarted node has %d entries, want %d", n2.Log.Len(), want)
	}
	if !bytes.Equal(n2.Log.HeadHash(), head) {
		t.Error("restarted node's head hash diverges")
	}
	if err := n2.InsertBase(ins(99)); err != nil {
		t.Fatal(err)
	}
	if n2.Log.Len() <= want {
		t.Error("restarted node did not extend its chain")
	}
	lastSeq := n2.Log.Len()
	before, err := n2.Log.Entry(want)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := n2.Log.Entry(lastSeq); err != nil || e.T < before.T {
		t.Errorf("restarted node's timestamps went backwards (err=%v)", err)
	}
}

// capture records what a node transmits.
type capture struct{ pkts []*Packet }

func (c *capture) Send(_, _ types.NodeID, pkt *Packet) { c.pkts = append(c.pkts, pkt) }

// TestRecoveryReportsUnackedAndResendsUnlogged drives NewNode's LogRecover
// path over a log holding the three cases a crash can leave behind: a send
// that was acknowledged, a send whose ack never arrived, and an input whose
// derived output never reached the log. Exactly the second is reported to
// the maintainer, and exactly the third is transmitted — under the message
// id the replayed machine assigns, so it collides with neither pre-crash
// exchange.
func TestRecoveryReportsUnackedAndResendsUnlogged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LogDir, cfg.LogHotTail = t.TempDir(), 2 // most of the log is read back from the tables
	n := testNode(t, cfg, nil)
	for i := int64(1); i <= 2; i++ {
		if err := n.InsertBase(ins(i)); err != nil {
			t.Fatal(err)
		}
	}
	id := func(seq uint64) types.MessageID { return types.MessageID{Src: "n1", Dst: "peer", Seq: seq} }
	n.Log.Append(&seclog.Entry{T: n.now(), Type: seclog.EAck, AckIDs: []types.MessageID{id(1)}})
	// The crash lands between logging the third input and stepping on it.
	n.Log.Append(&seclog.Entry{T: n.now(), Type: seclog.EIns, Tuple: ins(3)})
	crashedAt := n.Log.Len()
	if err := n.Log.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.LogRecover = true
	maint, wire := NewMaintainer(), &capture{}
	dir := NewDirectory()
	dir.Register("n1", n.key.Public())
	r, err := NewNode("n1", cfg, n.key, dir, maint, &fixedClock{t: types.Second}, wire, &stubMachine{self: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Log.Close()

	if notes := maint.Notes(); len(notes) != 1 || notes[0] != (MissingAckNote{Reporter: "n1", ID: id(2)}) {
		t.Errorf("missing-ack reports = %v, want exactly n1's message 2", notes)
	}
	if len(wire.pkts) != 1 || wire.pkts[0].Kind != PktEnvelope || len(wire.pkts[0].Envelope.Msgs) != 1 {
		t.Fatalf("recovery transmitted %d packets, want one envelope of one message", len(wire.pkts))
	}
	if m := wire.pkts[0].Envelope.Msgs[0]; m.ID() != id(3) || !m.Tuple.Equal(ins(3)) {
		t.Errorf("re-sent %s, want message 3 carrying %s", m, ins(3))
	}
	if r.Log.Len() != crashedAt+1 {
		t.Errorf("recovery appended %d entries, want the one snd", r.Log.Len()-crashedAt)
	}
	if e, err := r.Log.Entry(r.Log.Len()); err != nil || e.Type != seclog.ESnd {
		t.Errorf("last entry after recovery = %v (err %v), want the re-staged snd", e, err)
	}
}
