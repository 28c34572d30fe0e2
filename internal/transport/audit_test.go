package transport

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dlog"
	"repro/internal/seclog"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestAuthsSince pins the cursor rule of the incremental §5.5 read: a member
// answers from the cursor's position when the cursor is of its epoch and
// within its list, and with the whole list otherwise; every answer carries the
// member's epoch and the list's length. A node that refuses audits answers as
// AuthsAbout does, and a node served again answers under a new epoch.
func TestAuthsSince(t *testing.T) {
	cluster := NewCluster()
	defer cluster.Close()
	ids, _ := serveTestNodes(t, cluster, 2, "")
	observer, target := ids[0], ids[1]
	var held []seclog.Authenticator
	for seq := uint64(1); seq <= 4; seq++ {
		held = append(held, seclog.Authenticator{Node: target, Seq: seq, T: 1, Hash: []byte{byte(seq)}, Sig: []byte{9}})
	}
	with := func(fn func(*core.Node)) {
		t.Helper()
		if err := cluster.With(observer, fn); err != nil {
			t.Fatal(err)
		}
	}
	with(func(n *core.Node) {
		for _, a := range held {
			n.Auths.Add(a)
		}
	})
	f := cluster.NewFetcher("auditor")
	defer f.Close()
	since := func(from AuthCursor) ([]seclog.Authenticator, AuthCursor) {
		t.Helper()
		auths, next, err := f.AuthsSince(observer, target, from)
		if err != nil {
			t.Fatalf("AuthsSince(%+v): %v", from, err)
		}
		return auths, next
	}

	_, first := since(AuthCursor{})
	epoch := first.Epoch
	for _, c := range []struct {
		name string
		from AuthCursor
		want []seclog.Authenticator
	}{
		{"zero cursor", AuthCursor{}, held},
		{"foreign epoch", AuthCursor{Epoch: epoch + 1, N: 2}, held},
		{"past the end", AuthCursor{Epoch: epoch, N: 5}, held},
		{"n = 0", AuthCursor{Epoch: epoch}, held},
		{"mid-list", AuthCursor{Epoch: epoch, N: 2}, held[2:]},
		{"at the end", AuthCursor{Epoch: epoch, N: 4}, nil},
	} {
		auths, next := since(c.from)
		if len(auths) != len(c.want) || (len(auths) != 0 && !reflect.DeepEqual(auths, c.want)) {
			t.Errorf("%s: got %v, want %v", c.name, auths, c.want)
		}
		if next != (AuthCursor{Epoch: epoch, N: 4}) {
			t.Errorf("%s: next cursor %+v, want {%d 4}", c.name, next, epoch)
		}
	}

	with(func(n *core.Node) { n.RefuseAudit = true })
	if auths, next := since(AuthCursor{Epoch: epoch}); len(auths) != 0 || next != (AuthCursor{Epoch: epoch}) ||
		len(f.AuthsAbout(observer, target, 0, 1<<62)) != 0 {
		t.Errorf("a refusing node answered %v, cursor %+v", auths, next)
	}
	with(func(n *core.Node) { n.RefuseAudit = false })

	// The same node served again: an old cursor reads its whole list.
	var node *core.Node
	with(func(n *core.Node) { node = n })
	if err := cluster.StopNode(observer); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Serve(node, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	auths, next := since(AuthCursor{Epoch: epoch, N: 2})
	if !reflect.DeepEqual(auths, held) || next.Epoch == epoch || next.N != 4 {
		t.Errorf("after serving again: %v, cursor %+v (old epoch %d)", auths, next, epoch)
	}
}

// TestServedRetrieve: over TCP a member answers a retrieve with the bytes of
// its node's answer — in memory, and on store with most records sealed or in
// the tail file and copied as they are. A node with TamperRetrieve set serves
// its doctored answer, which an auditor proves tampered.
func TestServedRetrieve(t *testing.T) {
	for _, logDir := range []string{"", t.TempDir()} {
		cluster := NewCluster()
		defer cluster.Close()
		cfg := core.DefaultConfig()
		cfg.LogDir, cfg.LogHotTail = logDir, 2
		key, err := cryptoutil.PooledKey(cfg.Suite, 100)
		if err != nil {
			t.Fatal(err)
		}
		dir := core.NewDirectory()
		dir.Register("a", key.Public())
		node, err := core.NewNode("a", cfg, key, dir, core.NewMaintainer(), WallClock{}, cluster, dlog.NewMachine(mincost.Program(), "a"))
		if err != nil {
			t.Fatal(err)
		}
		node.Log.SetStoreTuning(1, 100)
		for i := int64(1); i <= 30; i++ {
			if err := node.InsertBase(types.MakeTuple("x", types.N("a"), types.I(i))); err != nil {
				t.Fatal(err)
			}
			if i%10 == 0 {
				if err := node.Log.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := cluster.Serve(node, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		f := cluster.NewFetcher("auditor")
		defer f.Close()
		first, err := node.Log.Entry(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []core.RetrieveRequest{{}, {StartTime: first.T + 1}, {EndTime: first.T + 1}} {
			got, err := f.Retrieve("a", req)
			if err != nil {
				t.Fatal(err)
			}
			var want *core.RetrieveResponse
			if err := cluster.With("a", func(n *core.Node) { want, err = n.HandleRetrieve(req) }); err != nil || want == nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire.Encode(*got), wire.Encode(*want)) {
				t.Errorf("store %q, %+v: the served answer is not the node's", logDir, req)
			}
		}

		if err := cluster.With("a", func(n *core.Node) {
			n.TamperRetrieve = func(_ core.RetrieveRequest, resp *core.RetrieveResponse) (*core.RetrieveResponse, error) {
				seg := *resp.Segment
				doctored := *seg.Entries[0]
				doctored.T++
				seg.Entries = append([]*seclog.Entry{&doctored}, seg.Entries[1:]...)
				return &core.RetrieveResponse{Segment: &seg, NewAuth: resp.NewAuth}, nil
			}
		}); err != nil {
			t.Fatal(err)
		}
		auth, err := f.LatestAuth("a")
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Retrieve("a", core.RetrieveRequest{Auth: auth})
		if err != nil {
			t.Fatal(err)
		}
		if got.Segment.Entries[0].T != first.T+1 {
			t.Errorf("store %q: the doctored answer was not served", logDir)
		}
		a := core.NewAuditor(cfg, dir, func(id types.NodeID) types.Machine { return dlog.NewMachine(mincost.Program(), id) }, nil)
		if err := a.Commit(a.Prepare("a", got, auth)); err == nil || !a.NodeFailed("a") {
			t.Errorf("store %q: the doctored log is not exposed: %v", logDir, a.Failures())
		}
	}
}

// TestMisroutedAnswerAccusesNobody: when a member's registered address
// reaches another member (swapped -nodes entries, a daemon restarted on a
// reused port), that member's answer is not the target's. The target must end
// up unreachable within the fetcher's retry deadline, and no failure may name
// anyone: taking b's segment as a's would accuse a of returning it.
func TestMisroutedAnswerAccusesNobody(t *testing.T) {
	cluster := NewCluster()
	defer cluster.Close()
	ids, _ := serveTestNodes(t, cluster, 2, "")
	a, b := ids[0], ids[1]
	for _, link := range []types.Tuple{mincost.Link(a, b, 1), mincost.Link(b, a, 1)} {
		if err := cluster.With(link.Loc(), func(n *core.Node) {
			if err := n.InsertBase(link); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	cluster.mu.Lock()
	bAddr := cluster.addrs[b]
	cluster.mu.Unlock()
	cluster.AddPeer(a, bAddr)

	cfg := core.DefaultConfig()
	dir := core.NewDirectory()
	for i, id := range ids {
		key, err := cryptoutil.PooledKey(cfg.Suite, int64(100+i)) // serveTestNodes' keys
		if err != nil {
			t.Fatal(err)
		}
		dir.Register(id, key.Public())
	}
	auditor := core.NewAuditor(cfg, dir, func(id types.NodeID) types.Machine { return dlog.NewMachine(mincost.Program(), id) }, nil)
	f := cluster.NewFetcher("auditor")
	defer f.Close()
	f.CallTimeout, f.RetryDeadline = 200*time.Millisecond, 500*time.Millisecond
	q := core.NewQuerier(auditor, f)

	start := time.Now()
	err := q.EnsureAudited(a, 0)
	if elapsed := time.Since(start); elapsed > 2*f.RetryDeadline {
		t.Errorf("the audit took %v, past the retry deadline of %v", elapsed, f.RetryDeadline)
	}
	if err == nil {
		t.Error("auditing a through b's address succeeded")
	}
	if _, ok := q.Unreachable()[a]; !ok {
		t.Errorf("a is not unreachable: %v", q.Unreachable())
	}
	if fs := auditor.Failures(); len(fs) != 0 {
		t.Errorf("failures filed: %v", fs)
	}
}
