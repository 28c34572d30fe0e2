package transport

import (
	"testing"
	"time"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dlog"
	"repro/internal/provgraph"
	"repro/internal/types"
)

// TestMinCostOverTCP runs the §3.3 example over real loopback sockets and
// wall-clock time, then answers the Figure 2 query — the same stack the
// simulator exercises, on a genuine network.
func TestMinCostOverTCP(t *testing.T) {
	cluster := NewCluster()
	defer cluster.Close()

	cfg := core.DefaultConfig()
	cfg.Tprop = 5 * types.Second // generous for loopback + scheduling noise
	cfg.DeltaClock = types.Second
	cfg.CheckpointEvery = 0
	dir := core.NewDirectory()
	maint := core.NewMaintainer()
	prog := mincost.Program()

	ids := []types.NodeID{"b", "c", "d"}
	for i, id := range ids {
		key, err := cryptoutil.PooledKey(cfg.Suite, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		dir.Register(id, key.Public())
		node, err := core.NewNode(id, cfg, key, dir, maint, WallClock{}, cluster,
			dlog.NewMachine(prog, id))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.Serve(node, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}

	// Figure 2's relevant links.
	insert := func(id types.NodeID, tup types.Tuple) {
		if err := cluster.With(id, func(n *core.Node) { n.InsertBase(tup) }); err != nil {
			t.Fatal(err)
		}
	}
	insert("b", mincost.Link("b", "d", 3))
	insert("d", mincost.Link("d", "b", 3))
	insert("b", mincost.Link("b", "c", 2))
	insert("c", mincost.Link("c", "b", 2))
	insert("c", mincost.Link("c", "d", 5))
	insert("d", mincost.Link("d", "c", 5))

	// Wait for convergence: c must learn bestCost(@c,d,5).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ok bool
		_ = cluster.With("c", func(n *core.Node) {
			ok = n.Machine.(*dlog.Machine).Lookup(mincost.BestCost("c", "d", 5))
		})
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("MinCost did not converge over TCP within 10s")
		}
		tickAll(cluster, ids)
		time.Sleep(20 * time.Millisecond)
	}
	// Let in-flight acks land before auditing.
	time.Sleep(200 * time.Millisecond)

	auditor := core.NewAuditor(cfg, dir, mincost.Factory(), maint)
	fetch := cluster.NewFetcher("auditor")
	defer fetch.Close()
	q := core.NewQuerier(auditor, fetch)
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		t.Fatalf("Explain over TCP: %v (failures %v)", err, auditor.Failures())
	}
	if len(expl.FindColor(provgraph.Red)) != 0 {
		t.Errorf("red vertices on a correct TCP run:\n%s", expl.Format())
	}
	if expl.Size() < 5 {
		t.Errorf("suspiciously small answer (%d vertices):\n%s", expl.Size(), expl.Format())
	}
}

func TestFramingRejectsOversized(t *testing.T) {
	if _, err := encodePacketFrame("a", &core.Packet{Kind: 99}, DefaultMaxFrame); err == nil {
		t.Error("unknown packet kind framed")
	}
}

// tickAll runs the timers of every listed node served on c once, as a live
// driver's tick does; a node no longer served is skipped.
func tickAll(c *Cluster, ids []types.NodeID) {
	for _, id := range ids {
		_ = c.With(id, func(n *core.Node) { _ = n.Tick() })
	}
}
