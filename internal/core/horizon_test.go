package core_test

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/seclog"
	"repro/internal/simnet"
	"repro/internal/types"
)

// responder answers one node's retrieves its own way; every other call goes
// to the deployment.
type responder struct {
	core.Fetcher
	node   types.NodeID
	answer func(req core.RetrieveRequest) (*core.RetrieveResponse, error)
	asked  []core.RetrieveRequest
}

func (r *responder) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	if node != r.node {
		return r.Fetcher.Retrieve(node, req)
	}
	r.asked = append(r.asked, req)
	return r.answer(req)
}

// TestBoundedRetrieveResponders: what a node the walk crosses onto can do
// with §5.4's retrieve(v, a) besides answering it. A prefix that stops short
// of the evidence, or that reaches it on another chain, is provable and the
// node's vertices are red; the whole log in place of the prefix is a longer
// answer to the same question and changes nothing.
func TestBoundedRetrieveResponders(t *testing.T) {
	w := adversary.Apps()[1](1) // quagga: its trace keeps logs growing past any horizon
	cfg := simnet.DefaultConfig()
	cfg.Seed = 1
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(w.Horizon)
	pick := net.QuerierFor(w)
	adversary.AuditAll(pick, net.Maintainer)

	// A question whose walk crosses onto a node and stops well short of its
	// head.
	var qu adversary.Query
	var crossed types.NodeID
	var honest string
	for _, cand := range adversary.ExplainQueries(pick, net.Nodes()) {
		q := net.QuerierFor(w)
		expl, err := adversary.ExplainBounded(q, cand)
		if err != nil {
			continue
		}
		for _, id := range net.Nodes() {
			if _, to, _, ok := q.Auditor.AuditedSpan(id); ok && id != cand.Node && to+10 < net.Node(id).Log.Len() {
				qu, crossed, honest = cand, id, expl.Format()
			}
		}
		if crossed != "" {
			break
		}
	}
	if crossed == "" {
		t.Fatal("no question crosses onto a node short of its head")
	}
	if !strings.Contains(honest, string(crossed)) {
		t.Fatalf("the explanation never mentions %s:\n%s", crossed, honest)
	}
	suite := cryptoutil.Ed25519SHA256

	ask := func(answer func(inner core.Fetcher, req core.RetrieveRequest) (*core.RetrieveResponse, error)) (*core.Querier, *responder, string) {
		t.Helper()
		q := net.QuerierFor(w)
		r := &responder{Fetcher: q.Fetch, node: crossed}
		r.answer = func(req core.RetrieveRequest) (*core.RetrieveResponse, error) { return answer(r.Fetcher, req) }
		q.Fetch = r
		expl, err := adversary.ExplainBounded(q, qu)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.asked) != 1 || r.asked[0].Auth.Node != crossed || r.asked[0].Auth.Sig == nil || r.asked[0].EndTime == 0 {
			t.Fatalf("%s was asked %+v, want one retrieve with evidence of its own and an EndTime", crossed, r.asked)
		}
		return q, r, expl.Format()
	}
	wantRed := func(q *core.Querier, rendered, reason string) {
		t.Helper()
		if !q.Auditor.NodeFailed(crossed) || !strings.Contains(rendered, "audit of "+string(crossed)+" failed") {
			t.Errorf("%s is not red:\n%s", crossed, rendered)
		}
		for _, f := range q.Auditor.Failures() {
			if f.Node != crossed {
				t.Errorf("failure against %s: %v", f.Node, f)
			}
			if f.Node == crossed && strings.Contains(f.Reason, reason) {
				return
			}
		}
		t.Errorf("no failure says %q: %v", reason, q.Auditor.Failures())
	}

	t.Run("answers", func(t *testing.T) {
		q, r, rendered := ask(func(inner core.Fetcher, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
			return inner.Retrieve(crossed, req)
		})
		if rendered != honest || len(q.Auditor.Failures()) != 0 {
			t.Errorf("failures %v, answer:\n%s", q.Auditor.Failures(), rendered)
		}
		if _, to, through, _ := q.Auditor.AuditedSpan(crossed); to < r.asked[0].Auth.Seq || through <= r.asked[0].EndTime {
			t.Errorf("audited through %d (%v), short of the evidence at %d or of the horizon %v", to, through, r.asked[0].Auth.Seq, r.asked[0].EndTime)
		}
	})

	t.Run("stops short of the evidence", func(t *testing.T) {
		q, _, rendered := ask(func(inner core.Fetcher, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
			// An honest-looking prefix with a fresh authenticator of its own,
			// ending at the first entry.
			return inner.Retrieve(crossed, core.RetrieveRequest{Auth: seclog.Authenticator{Node: crossed}, EndTime: 1})
		})
		wantRed(q, rendered, "log does not match authenticator")
	})

	t.Run("forks before the evidence", func(t *testing.T) {
		q, _, rendered := ask(func(inner core.Fetcher, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
			resp, err := inner.Retrieve(crossed, req)
			if err != nil {
				return nil, err
			}
			// Rewrite the first insert, rebuild the chain over it and sign
			// the new head: a consistent log, on another chain than the one
			// the evidence is a position of.
			seg := *resp.Segment
			seg.Entries = append([]*seclog.Entry(nil), seg.Entries...)
			for i, e := range seg.Entries {
				if e.Type == seclog.EIns && seg.From+uint64(i) < req.Auth.Seq {
					doctored := *e
					doctored.Tuple = adversary.MutateTuple(e.Tuple)
					seg.Entries[i] = &doctored
					break
				}
			}
			head := seg.BaseHash
			for _, e := range seg.Entries {
				head = seclog.ChainHash(suite, nil, head, e)
			}
			last := seg.Entries[len(seg.Entries)-1]
			sig, err := net.Node(crossed).Log.Sign(last.T, head)
			if err != nil {
				return nil, err
			}
			return &core.RetrieveResponse{Segment: &seg,
				NewAuth: &seclog.Authenticator{Node: crossed, Seq: seg.To(), T: last.T, Hash: head, Sig: sig}}, nil
		})
		wantRed(q, rendered, "evidence authenticator is not on the returned chain (fork)")
	})

	t.Run("returns the whole log anyway", func(t *testing.T) {
		q, _, rendered := ask(func(inner core.Fetcher, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
			return inner.Retrieve(crossed, core.RetrieveRequest{Auth: req.Auth})
		})
		if rendered != honest || len(q.Auditor.Failures()) != 0 {
			t.Errorf("failures %v, answer:\n%s\nwant:\n%s", q.Auditor.Failures(), rendered, honest)
		}
		if _, to, _, _ := q.Auditor.AuditedSpan(crossed); to != net.Node(crossed).Log.Len() {
			t.Errorf("audited through %d, the responder sent all %d", to, net.Node(crossed).Log.Len())
		}
	})
}
