package core

import (
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// Envelope is the on-the-wire form of a batch of update messages under one
// signature (§5.4: the sender transmits (m, h_{x−1}, t_x, σ_i(t_x‖h_x));
// §5.6: batching amortizes the signature over up to k messages).
type Envelope struct {
	Msgs     []types.Message
	PrevHash []byte     // h_{x−1}
	T        types.Time // t_x
	Sig      []byte     // σ_src(t_x ‖ h_x)
	Seq      uint64     // sender's log position x of the snd entry

	hash []byte // h_x as the signer computed it; never on the wire (see Packet.Commitment)
}

// MarshalWire implements wire.Marshaler.
func (e Envelope) MarshalWire(w *wire.Writer) {
	w.Uint(uint64(len(e.Msgs)))
	for i := range e.Msgs {
		e.Msgs[i].MarshalWire(w)
	}
	w.BytesField(e.PrevHash)
	w.Int(int64(e.T))
	w.BytesField(e.Sig)
	w.Uint(e.Seq)
}

// UnmarshalWire implements wire.Unmarshaler.
func (e *Envelope) UnmarshalWire(r *wire.Reader) error {
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	e.Msgs = make([]types.Message, n)
	for i := range e.Msgs {
		if err := e.Msgs[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	e.PrevHash = r.BytesField()
	e.T = types.Time(r.Int())
	e.Sig = r.BytesField()
	e.Seq = r.Uint()
	return r.Err()
}

// PayloadSize returns the wire size of the bare messages (the baseline
// traffic a provenance-free system would send); the remainder of the
// envelope is SNP overhead, split for Figure 5's breakdown.
func (e Envelope) PayloadSize() int {
	w := wire.GetWriter()
	for i := range e.Msgs {
		e.Msgs[i].MarshalWire(w)
	}
	n := w.Len()
	wire.PutWriter(w)
	return n
}

// Ack acknowledges an envelope (§5.4: (ack, t_x, h_{y−1}, t_y,
// σ_j(t_y‖h_y))).
type Ack struct {
	IDs      []types.MessageID
	PrevHash []byte     // h_{y−1}
	T        types.Time // t_y
	Sig      []byte     // σ_dst(t_y ‖ h_y)
	Seq      uint64     // receiver's log position y of the rcv entry

	hash []byte // h_y as the signer computed it; never on the wire (see Packet.Commitment)
}

// MarshalWire implements wire.Marshaler.
func (a Ack) MarshalWire(w *wire.Writer) {
	w.Uint(uint64(len(a.IDs)))
	for _, id := range a.IDs {
		w.String(string(id.Src))
		w.String(string(id.Dst))
		w.Uint(id.Seq)
	}
	w.BytesField(a.PrevHash)
	w.Int(int64(a.T))
	w.BytesField(a.Sig)
	w.Uint(a.Seq)
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *Ack) UnmarshalWire(r *wire.Reader) error {
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	a.IDs = make([]types.MessageID, n)
	for i := range a.IDs {
		a.IDs[i].Src = types.NodeID(r.String())
		a.IDs[i].Dst = types.NodeID(r.String())
		a.IDs[i].Seq = r.Uint()
	}
	a.PrevHash = r.BytesField()
	a.T = types.Time(r.Int())
	a.Sig = r.BytesField()
	a.Seq = r.Uint()
	return r.Err()
}

// PacketKind tags transport packets for dispatch and traffic accounting.
type PacketKind uint8

// Packet kinds.
const (
	PktEnvelope PacketKind = iota
	PktAck
)

// Packet is one transport datagram between nodes.
type Packet struct {
	Kind     PacketKind
	Envelope *Envelope
	Ack      *Ack
}

// WireSize returns the packet's encoded size.
func (p *Packet) WireSize() int {
	switch p.Kind {
	case PktEnvelope:
		return 1 + wire.Size(*p.Envelope)
	case PktAck:
		return 1 + wire.Size(*p.Ack)
	}
	return 1
}

// Commitment returns what the packet's signature covers, (t, h), as its
// signer recorded h when signing, and the signature; hash is nil for a packet
// decoded or built without signing. It lets a transport check the signature
// ahead of delivery (simnet) and vouches for nothing: the receiver recomputes
// h from the packet and its own state.
func (p *Packet) Commitment() (t types.Time, hash, sig []byte) {
	switch p.Kind {
	case PktEnvelope:
		return p.Envelope.T, p.Envelope.hash, p.Envelope.Sig
	case PktAck:
		return p.Ack.T, p.Ack.hash, p.Ack.Sig
	}
	return 0, nil, nil
}

// Sender transmits packets to peers; implemented by the simulated network
// and the TCP transport.
type Sender interface {
	Send(from, to types.NodeID, pkt *Packet)
}

// RetrieveRequest asks host(v) for the log segment that explains a vertex
// (§5.4, retrieve(v, a_ik)). StartTime/EndTime delimit the vertex's
// lifetime in the host's local clock; the host answers with the segment
// from the last checkpoint before StartTime through at least EndTime (or
// its current head), plus a fresh authenticator when the returned segment
// extends beyond the evidence.
type RetrieveRequest struct {
	Auth      seclog.Authenticator
	StartTime types.Time
	EndTime   types.Time
}

// MarshalWire implements wire.Marshaler.
func (r RetrieveRequest) MarshalWire(w *wire.Writer) {
	r.Auth.MarshalWire(w)
	w.Int(int64(r.StartTime))
	w.Int(int64(r.EndTime))
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *RetrieveRequest) UnmarshalWire(rd *wire.Reader) error {
	if err := r.Auth.UnmarshalWire(rd); err != nil {
		return err
	}
	r.StartTime = types.Time(rd.Int())
	r.EndTime = types.Time(rd.Int())
	return rd.Err()
}

// RetrieveResponse carries the answer to a RetrieveRequest.
type RetrieveResponse struct {
	Segment *seclog.SegmentData
	// NewAuth covers the segment head when it extends beyond the request's
	// evidence ("if the prefix extends beyond e_k, i must also return a new
	// authenticator", §5.4).
	NewAuth *seclog.Authenticator
}

// MarshalWire implements wire.Marshaler. Since the segment encoding became
// symmetric (checkpoint entries travel with their full payload), a response
// round-trips across a process boundary with no payload side channel.
func (r RetrieveResponse) MarshalWire(w *wire.Writer) {
	r.Segment.MarshalWire(w)
	marshalNewAuth(w, r.NewAuth)
}

// marshalNewAuth writes what follows the segment in a RetrieveResponse.
func marshalNewAuth(w *wire.Writer, auth *seclog.Authenticator) {
	w.Bool(auth != nil)
	if auth != nil {
		auth.MarshalWire(w)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *RetrieveResponse) UnmarshalWire(rd *wire.Reader) error {
	r.Segment = new(seclog.SegmentData)
	if err := r.Segment.UnmarshalWire(rd); err != nil {
		return err
	}
	if rd.Bool() {
		r.NewAuth = new(seclog.Authenticator)
		if err := r.NewAuth.UnmarshalWire(rd); err != nil {
			return err
		}
	}
	return rd.Err()
}

// WireSize returns the response's encoded size (the bytes a remote querier
// actually downloads; query metrics account the §5.6 digest form instead).
func (r *RetrieveResponse) WireSize() int {
	n := r.Segment.WireSize()
	if r.NewAuth != nil {
		n += r.NewAuth.WireSize()
	}
	return n
}

// MarshalWire implements wire.Marshaler (the frontend's audit answer).
func (f Failure) MarshalWire(w *wire.Writer) {
	w.String(string(f.Node))
	w.Uint(f.Seq)
	w.String(f.Reason)
}

// UnmarshalWire implements wire.Unmarshaler.
func (f *Failure) UnmarshalWire(r *wire.Reader) error {
	f.Node = types.NodeID(r.String())
	f.Seq = r.Uint()
	f.Reason = r.String()
	return r.Err()
}

// MarshalWire implements wire.Marshaler (the notes RPC, the audit answer).
func (n MissingAckNote) MarshalWire(w *wire.Writer) {
	w.String(string(n.Reporter))
	w.String(string(n.ID.Src))
	w.String(string(n.ID.Dst))
	w.Uint(n.ID.Seq)
}

// UnmarshalWire implements wire.Unmarshaler.
func (n *MissingAckNote) UnmarshalWire(r *wire.Reader) error {
	n.Reporter = types.NodeID(r.String())
	n.ID.Src = types.NodeID(r.String())
	n.ID.Dst = types.NodeID(r.String())
	n.ID.Seq = r.Uint()
	return r.Err()
}
