package transport

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/seclog"
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
