package chord_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/chord"
	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/provgraph"
	"repro/internal/simnet"
	"repro/internal/types"
)

func runChord(t *testing.T, n int, dur types.Time, mutate func(*simnet.Net)) (*simnet.Net, []types.NodeID) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Core.CheckpointEvery = 0 // full-log replay keeps the tests simple
	net := simnet.New(cfg)
	p := chord.DefaultParams(n)
	p.Duration = dur
	p.JoinSpread = 10 * types.Second
	p.StabilizeEvery = 20 * types.Second
	p.FingerEvery = 20 * types.Second
	p.KeepAliveEvery = 10 * types.Second
	p.Lookups = n
	w := chord.New(p)
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(net)
	}
	net.Run(w.Horizon)
	return net, w.Nodes
}

// ringConsistent checks that following succ pointers visits every node.
func ringConsistent(t *testing.T, net *simnet.Net, names []types.NodeID) bool {
	t.Helper()
	succ := map[types.NodeID]types.NodeID{}
	for _, name := range names {
		m := net.Node(name).Machine.(*dlog.Machine)
		ss := slices.Collect(m.Tuples("succ"))
		if len(ss) != 1 {
			t.Logf("%s has %d succ tuples: %v", name, len(ss), ss)
			return false
		}
		succ[name] = ss[0].Args[1].Node()
	}
	seen := map[types.NodeID]bool{}
	cur := names[0]
	for i := 0; i < len(names); i++ {
		if seen[cur] {
			t.Logf("ring short-circuits at %s after %d hops", cur, i)
			return false
		}
		seen[cur] = true
		cur = succ[cur]
	}
	return cur == names[0] && len(seen) == len(names)
}

func TestChordRingForms(t *testing.T) {
	net, names := runChord(t, 8, 3*types.Minute, nil)
	if !ringConsistent(t, net, names) {
		t.Error("successor ring did not converge")
	}
}

func TestChordLookupsResolve(t *testing.T) {
	net, names := runChord(t, 8, 3*types.Minute, nil)
	// At least one application lookup must have produced a stored result.
	total := 0
	for _, name := range names {
		m := net.Node(name).Machine.(*dlog.Machine)
		total += len(slices.Collect(m.Tuples("result")))
	}
	if total == 0 {
		t.Fatal("no lookup results stored")
	}
}

// findResult locates one stored lookup result and its host.
func findResult(net *simnet.Net, names []types.NodeID) (types.NodeID, types.Tuple) {
	for _, name := range names {
		m := net.Node(name).Machine.(*dlog.Machine)
		if rs := slices.Collect(m.Tuples("result")); len(rs) > 0 {
			return name, rs[0]
		}
	}
	return "", types.Tuple{}
}

// TestChordLookupProvenance is the §7.2 Chord-Lookup query: the provenance
// of a lookup result names the nodes and finger/successor entries involved.
func TestChordLookupProvenance(t *testing.T) {
	net, names := runChord(t, 8, 3*types.Minute, nil)
	host, result := findResult(net, names)
	if host == "" {
		t.Fatal("no result tuple found")
	}
	q := net.NewQuerier(chord.Factory())
	expl, err := q.Explain(host, result, core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v (failures %v)", err, q.Auditor.Failures())
	}
	tree := expl.Format()
	if !strings.Contains(tree, "lookupRes(") {
		t.Errorf("provenance lacks the lookup response:\n%s", tree)
	}
	if len(expl.FindColor(provgraph.Red)) != 0 {
		t.Errorf("red vertices on a correct Chord run:\n%s", tree)
	}
}

// TestChordFingerProvenance is the §7.2 Chord-Finger query.
func TestChordFingerProvenance(t *testing.T) {
	net, names := runChord(t, 8, 3*types.Minute, nil)
	var host types.NodeID
	var finger types.Tuple
	for _, name := range names {
		m := net.Node(name).Machine.(*dlog.Machine)
		for f := range m.Tuples("finger") {
			if f.Args[1].Int >= 1 { // a fixed finger, not the succ mirror
				host, finger = name, f
				break
			}
		}
		if host != "" {
			break
		}
	}
	if host == "" {
		t.Skip("no fixed finger entries yet (ring too small)")
	}
	q := net.NewQuerier(chord.Factory())
	expl, err := q.Explain(host, finger, core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if expl.Vertex.Type != provgraph.VExist {
		t.Errorf("root = %s", expl.Vertex)
	}
}

// TestEclipseAttackDetected mounts a §7.3-style Eclipse attack: the
// compromised node lies about its ring position in its stabilization
// notify messages (claiming to sit immediately before its successor), so
// the successor adopts it as predecessor no matter what — inflating the
// attacker's presence in its neighbors' state. Replaying the attacker's
// log against the correct rules exposes the forged notifications.
func TestEclipseAttackDetected(t *testing.T) {
	attacker := chord.NodeName(2)
	net, names := runChord(t, 8, 3*types.Minute, func(net *simnet.Net) {
		bad := net.Node(attacker)
		bad.Tamper = func(ev types.Event, outs []types.Output) []types.Output {
			for i, o := range outs {
				if o.Kind != types.OutSend || o.Msg.Tuple.Rel != "notify" {
					continue
				}
				tup := o.Msg.Tuple
				succ := tup.Args[0].Node()
				fakeID := (chord.RingID(succ) - 1 + chord.RingSize) % chord.RingSize
				m := *o.Msg
				m.Tuple = types.MakeTuple("notify", tup.Args[0], tup.Args[1], types.I(fakeID))
				outs[i].Msg = &m
			}
			return outs
		}
	})
	// Find a victim whose predecessor pointer names the attacker under a
	// forged ring ID.
	var victim types.NodeID
	var poisoned types.Tuple
	for _, name := range names {
		if name == attacker {
			continue
		}
		m := net.Node(name).Machine.(*dlog.Machine)
		for p := range m.Tuples("pred") {
			if p.Args[1].Node() == attacker && p.Args[2].Int != chord.RingID(attacker) {
				victim, poisoned = name, p
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Fatal("attack produced no poisoned predecessor pointer")
	}
	q := net.NewQuerier(chord.Factory())
	expl, err := q.Explain(victim, poisoned, core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	faulty := expl.FaultyNodes()
	found := false
	for _, f := range faulty {
		if f == attacker {
			found = true
		}
	}
	if !found {
		t.Errorf("attacker %s not identified; faulty = %v\n%s", attacker, faulty, expl.Format())
	}
}

func TestRingIDStable(t *testing.T) {
	a := chord.RingID("chord001")
	b := chord.RingID("chord001")
	if a != b {
		t.Error("RingID not deterministic")
	}
	if a < 0 || a >= chord.RingSize {
		t.Errorf("RingID out of range: %d", a)
	}
}
