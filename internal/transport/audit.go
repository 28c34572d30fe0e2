package transport

// The audit control plane over TCP: queriers retrieve log segments, fresh
// authenticators, and peer-held evidence from live nodes with the same
// framing the data plane uses. Each kind is one Handler registered on the
// member's Server and one typed method on RemoteFetcher, a Caller that
// retries transient network failures with backoff until a deadline, then
// surfaces a checked error — which the querier records as an unreachable
// (yellow) node, an unattributable lead, never a provable accusation.

import (
	"net"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// Audit request kinds (disjoint from the data-plane kinds); a response's
// kind is its request's plus one. The range 0x20–0x2F is reserved for the
// query frontend (internal/queryfront), which registers its own kinds on its
// own Server.
const (
	frameRetrieveReq   byte = 0x10
	frameAuthReq       byte = 0x12
	frameAuthsReq      byte = 0x14
	frameHealthReq     byte = 0x16 // health.go
	frameNotesReq      byte = 0x18
	frameAuthsSinceReq byte = 0x1a
)

// register puts a member's kinds on its server: the two data kinds one-way,
// the six audit kinds answered. The node lock is held only for the node
// call itself, and the response write happens outside it. A retrieve answer
// is encoded under the lock, into a buffer of its own: it copies the log's
// stored records, some out of table mappings that compaction may retire once
// the lock is released.
func (c *Cluster) register(srv *Server, m *member) {
	for _, kind := range []byte{frameEnvelope, frameAck} {
		srv.HandleOneWay(kind, func(from types.NodeID, r *wire.Reader) func(Reply) {
			pkt := decodePacket(kind, r)
			return func(Reply) {
				m.mu.Lock()
				_ = m.node.HandlePacket(from, pkt)
				m.mu.Unlock()
			}
		})
	}
	srv.Handle(frameRetrieveReq, func(_ types.NodeID, r *wire.Reader) func(Reply) {
		var req core.RetrieveRequest
		r.Value(&req)
		return func(reply Reply) {
			var answer wire.Writer
			m.mu.Lock()
			err := m.node.WriteRetrieve(&answer, req)
			m.mu.Unlock()
			reply(err, func(w *wire.Writer) { w.Raw(answer.Bytes()) })
		}
	})
	srv.Handle(frameAuthReq, func(types.NodeID, *wire.Reader) func(Reply) {
		return func(reply Reply) {
			m.mu.Lock()
			auth, err := m.node.LatestAuth()
			m.mu.Unlock()
			reply(err, auth.MarshalWire)
		}
	})
	srv.Handle(frameAuthsReq, func(_ types.NodeID, r *wire.Reader) func(Reply) {
		target := types.NodeID(r.String())
		t1 := types.Time(r.Int())
		t2 := types.Time(r.Int())
		return func(reply Reply) {
			m.mu.Lock()
			auths := m.node.AuthsAbout(target, t1, t2)
			m.mu.Unlock()
			reply(nil, func(w *wire.Writer) { wire.WriteSlice(w, auths, seclog.Authenticator.MarshalWire) })
		}
	})
	srv.Handle(frameAuthsSinceReq, func(_ types.NodeID, r *wire.Reader) func(Reply) {
		target := types.NodeID(r.String())
		from := AuthCursor{Epoch: r.Uint(), N: r.Uint()}
		return func(reply Reply) {
			m.mu.Lock()
			next := AuthCursor{Epoch: m.epoch}
			if from.Epoch != m.epoch {
				from.N = 0
			}
			var auths []seclog.Authenticator
			auths, next.N = m.node.AuthsSince(target, from.N)
			m.mu.Unlock()
			reply(nil, func(w *wire.Writer) {
				w.Uint(next.Epoch)
				w.Uint(next.N)
				wire.WriteSlice(w, auths, seclog.Authenticator.MarshalWire)
			})
		}
	})
	srv.Handle(frameHealthReq, func(_ types.NodeID, r *wire.Reader) func(Reply) {
		probeSeq := r.Uint()
		return func(reply Reply) { reply(nil, c.buildHealth(m, probeSeq).MarshalWire) }
	})
	srv.Handle(frameNotesReq, func(types.NodeID, *wire.Reader) func(Reply) {
		return func(reply Reply) {
			c.mu.Lock()
			maint := c.maint
			c.mu.Unlock()
			notes := maint.Notes() // nil-safe: none for a cluster without a maintainer
			reply(nil, func(w *wire.Writer) { wire.WriteSlice(w, notes, core.MissingAckNote.MarshalWire) })
		}
	})
}

// AuditCallTimeout and AuditRetryDeadline are the budgets the audit drivers
// (live.Harness, supervisor.Supervisor, queryfront) give their fetchers:
// per attempt and per logical call, so an unreachable peer costs an audit at
// most the deadline. A caller that wants other budgets sets the fetcher's
// exported fields.
const (
	AuditCallTimeout   = 500 * time.Millisecond
	AuditRetryDeadline = 2 * time.Second
)

// RemoteFetcher implements core.Fetcher over the wire: a Caller (CallTimeout
// default 3s, RetryDeadline default 10s) plus one typed method per audit
// kind. Unreachable or stalling peers cost bounded time and surface as
// checked errors; the query layer records them as yellow vertices and the
// verdict layer as unattributable leads (§4.2's "unavailable" tier). It is
// safe for concurrent use (the querier's audit worker pool fans calls out).
type RemoteFetcher struct {
	*Caller
	c *Cluster
}

// NewFetcher builds a remote fetcher that audits this cluster's peers over
// TCP. id names the querier on the wire and to the fault plan, so plans
// can partition audit traffic (rules matching From: id) independently of
// the data plane.
func (c *Cluster) NewFetcher(id types.NodeID) *RemoteFetcher {
	f := &RemoteFetcher{c: c, Caller: NewCaller(id, c.cfg.MaxFrame, c.cfg.backoff(), c.cfg.Seed,
		func(node types.NodeID) (net.Conn, error) {
			c.mu.Lock()
			addr, ok := c.addrs[node]
			c.mu.Unlock()
			if !ok {
				return nil, &RemoteError{Node: node, Msg: "unknown peer"}
			}
			return c.cfg.Fault.Dial(id, node, addr, c.cfg.DialTimeout)
		})}
	f.CallTimeout, f.RetryDeadline = 3*time.Second, 10*time.Second
	return f
}

// Retrieve implements core.Fetcher.
func (f *RemoteFetcher) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	resp := new(core.RetrieveResponse)
	if err := f.Call(node, frameRetrieveReq, req.MarshalWire, func(r *wire.Reader) { r.Value(resp) }); err != nil {
		return nil, err
	}
	return resp, nil
}

// LatestAuth implements core.Fetcher.
func (f *RemoteFetcher) LatestAuth(node types.NodeID) (seclog.Authenticator, error) {
	var auth seclog.Authenticator
	err := f.Call(node, frameAuthReq, nil, func(r *wire.Reader) { r.Value(&auth) })
	return auth, err
}

// AuthsAbout implements core.Fetcher. Unreachable observers contribute no
// evidence (the Fetcher interface carries no error here): the consistency
// check simply sees fewer vouching peers, which can only weaken detection,
// never accuse.
func (f *RemoteFetcher) AuthsAbout(observer, target types.NodeID, t1, t2 types.Time) []seclog.Authenticator {
	var out []seclog.Authenticator
	err := f.Call(observer, frameAuthsReq,
		func(w *wire.Writer) {
			w.String(string(target))
			w.Int(int64(t1))
			w.Int(int64(t2))
		},
		func(r *wire.Reader) { out = wire.ReadSlice(r, (*seclog.Authenticator).UnmarshalWire) })
	if err != nil {
		return nil
	}
	return out
}

// AuthCursor is how far a reader got into the list of one target's
// authenticators that one served node keeps: the member's epoch, and the
// list's length when read. The zero cursor reads the whole list.
type AuthCursor struct {
	Epoch, N uint64
}

// AuthsSince asks observer for the authenticators signed by target that it
// added to its list past from, and returns them with the cursor to read on
// from. The answer is the whole list when from names another epoch (observer
// was served again since, with a fresh list) or a position past the end. An
// honest list only grows within an epoch, so nothing before from has changed.
// Unlike AuthsAbout it reports a failed call, so that a caller can keep from.
func (f *RemoteFetcher) AuthsSince(observer, target types.NodeID, from AuthCursor) ([]seclog.Authenticator, AuthCursor, error) {
	var out []seclog.Authenticator
	var next AuthCursor
	err := f.Call(observer, frameAuthsSinceReq,
		func(w *wire.Writer) {
			w.String(string(target))
			w.Uint(from.Epoch)
			w.Uint(from.N)
		},
		func(r *wire.Reader) {
			next = AuthCursor{Epoch: r.Uint(), N: r.Uint()}
			out = wire.ReadSlice(r, (*seclog.Authenticator).UnmarshalWire)
		})
	if err != nil {
		return nil, AuthCursor{}, err
	}
	return out, next, nil
}

// Nodes implements core.Fetcher: the full registered membership (local and
// remote), sorted. This is the set AuditAll sweeps.
func (f *RemoteFetcher) Nodes() []types.NodeID {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	out := make([]types.NodeID, 0, len(f.c.addrs))
	for id := range f.c.addrs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
