package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

func TestDirectory(t *testing.T) {
	d := NewDirectory()
	key, err := cryptoutil.Ed25519SHA256.GenerateKey(1)
	if err != nil {
		t.Fatal(err)
	}
	key2, err := cryptoutil.Ed25519SHA256.GenerateKey(2)
	if err != nil {
		t.Fatal(err)
	}
	d.Register("n1", key.Public())
	d.Register("n2", key2.Public())
	for id, want := range map[types.NodeID]cryptoutil.PrivateKey{"n1": key, "n2": key2} {
		got, err := d.Key(id)
		if err != nil {
			t.Errorf("registered key of %s not found: %v", id, err)
		} else if !bytes.Equal(got.Marshal(), want.Public().Marshal()) {
			t.Errorf("Key(%s) returned another node's key", id)
		}
	}
	if _, err := d.Key("nope"); err == nil {
		t.Error("unknown node resolved")
	}
}

func TestMaintainer(t *testing.T) {
	m := NewMaintainer()
	id := types.MessageID{Src: "a", Dst: "b", Seq: 1}
	if m.WasNotified("a", id) {
		t.Error("fresh maintainer has notifications")
	}
	m.NotifyMissingAck("a", id)
	if !m.WasNotified("a", id) {
		t.Error("notification lost")
	}
	if m.WasNotified("b", id) {
		t.Error("notification leaked to another reporter")
	}
	if m.Count() != 1 {
		t.Errorf("Count = %d", m.Count())
	}
	var nilM *Maintainer
	if nilM.WasNotified("a", id) {
		t.Error("nil maintainer reported a notification")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := Envelope{
		Msgs: []types.Message{{
			Src: "a", Dst: "b", Pol: types.PolAppear,
			Tuple: types.MakeTuple("x", types.N("b"), types.I(1)), SendTime: 5, Seq: 1,
		}},
		PrevHash: []byte{1, 2, 3},
		T:        5,
		Sig:      []byte{9, 9},
		Seq:      7,
	}
	var got Envelope
	if err := wire.Decode(wire.Encode(env), &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.T != 5 || len(got.Msgs) != 1 || !got.Msgs[0].Tuple.Equal(env.Msgs[0].Tuple) {
		t.Errorf("round trip = %+v", got)
	}
	if env.PayloadSize() <= 0 || env.PayloadSize() >= wire.Size(env) {
		t.Errorf("payload size %d vs full %d", env.PayloadSize(), wire.Size(env))
	}
}

func TestAckRoundTrip(t *testing.T) {
	ack := Ack{
		IDs:      []types.MessageID{{Src: "a", Dst: "b", Seq: 1}, {Src: "a", Dst: "b", Seq: 2}},
		PrevHash: []byte{4},
		T:        6,
		Sig:      []byte{5},
		Seq:      9,
	}
	var got Ack
	if err := wire.Decode(wire.Encode(ack), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 2 || got.IDs[1].Seq != 2 || got.Seq != 9 {
		t.Errorf("round trip = %+v", got)
	}
}

// aheadPipe is the pipe with simnet's verify-ahead in front: the commitment
// of every packet, as its signer recorded it, is reserved and checked on
// another goroutine before the receiver sees the packet.
type aheadPipe struct {
	pipe
	dir *Directory
	wg  sync.WaitGroup
}

func (p *aheadPipe) Send(from, to types.NodeID, pkt *Packet) {
	if t, hash, sig := pkt.Commitment(); hash != nil {
		pub, _ := p.dir.Key(from)
		if check := seclog.ReserveCommitment(pub, t, hash, sig); check != nil {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				check()
			}()
		}
	}
	p.pipe.Send(from, to, pkt)
}

// TestVerifyAheadHintVouchesForNothing: the chain hash a signer records on
// its envelope lets a transport check the signature ahead of delivery, and
// nothing more. An envelope whose signature is flipped after signing, hint
// intact, is rejected with the ahead-check's (correct) answer; one whose
// messages are altered under the signer's hint costs the receiver a miss and
// a real check. Neither is logged.
func TestVerifyAheadHintVouchesForNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(*Envelope)
		hits   uint64 // the receiver's verify-cache hits
	}{
		{"signature flipped after signing", func(e *Envelope) {
			e.Sig = bytes.Clone(e.Sig)
			e.Sig[0] ^= 0x01
		}, 1},
		{"messages altered under the hint", func(e *Envelope) {
			e.Msgs = slices.Clone(e.Msgs)
			e.Msgs[0].Tuple = ins(99)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cryptoutil.DefaultVerifyCache.Reset()
			cfg := DefaultConfig()
			pp := &aheadPipe{pipe: pipe{nodes: make(map[types.NodeID]*Node)}, dir: NewDirectory()}
			for i, id := range []types.NodeID{"n1", "n2"} {
				key, err := cryptoutil.PooledKey(cfg.suite(), int64(i+1))
				if err != nil {
					t.Fatal(err)
				}
				pp.dir.Register(id, key.Public())
				n, err := NewNode(id, cfg, key, pp.dir, NewMaintainer(), &fixedClock{}, pp, &countMachine{self: id, peer: "n2"})
				if err != nil {
					t.Fatal(err)
				}
				pp.nodes[id] = n
			}
			n1, n2 := pp.nodes["n1"], pp.nodes["n2"]
			var sent *Packet
			n1.TamperPacket = func(_ types.NodeID, pkt *Packet) []*Packet {
				env := *pkt.Envelope // the hint comes along
				tc.tamper(&env)
				sent = &Packet{Kind: PktEnvelope, Envelope: &env}
				return []*Packet{sent}
			}
			if err := n1.InsertBase(ins(1)); err != nil {
				t.Fatal(err)
			}
			pp.wg.Wait()
			if _, hash, _ := sent.Commitment(); hash == nil {
				t.Fatal("the tampered envelope carries no hint")
			}
			if n2.Log.Len() != 0 {
				t.Errorf("the receiver logged %d entries of a corrupted envelope", n2.Log.Len())
			}
			if st := n2.Stats.Snapshot(); st.Verifies != 1 || st.VerifyCacheHits != tc.hits {
				t.Errorf("receiver verifies=%d hits=%d, want 1 and %d", st.Verifies, st.VerifyCacheHits, tc.hits)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	if cfg.suite() == nil {
		t.Error("nil suite not defaulted")
	}
	d := DefaultConfig()
	if d.Tprop <= 0 || d.DeltaClock <= 0 || d.CheckpointEvery <= 0 {
		t.Errorf("DefaultConfig = %+v", d)
	}
}
