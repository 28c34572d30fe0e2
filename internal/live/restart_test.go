package live

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestLiveRestartRecovery kills a served node mid-run, reopens its on-disk
// log through the recovery path, rejoins it to the cluster on a fresh port,
// and verifies (1) the recovered log head is bit-identical to the head at
// the crash, (2) work spanning the restart completes — the peers' reconnect
// backoff finds the new listener — and (3) a full audit spanning the
// restart yields zero provable evidence: an honest crash is not a fault.
func TestLiveRestartRecovery(t *testing.T) {
	app := mustApp(t, "mincost")
	h, err := New(app, Options{Seed: 11, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	// Quiesce so the crash has a clean cut: every pre-restart exchange
	// fully acked (in-flight commitment state does not survive a crash and
	// would surface as missing-ack leads, which this test wants zero of).
	h.Settle()

	head, err := h.HeadHash("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Restart("d"); err != nil {
		t.Fatal(err)
	}
	var recovered []byte
	if err := h.With("d", func(n *core.Node) {
		recovered = append([]byte(nil), n.Log.HeadHash()...)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, recovered) {
		t.Fatalf("recovered log head differs:\n pre-crash %x\n recovered %x", head, recovered)
	}

	// Post-restart work: a cheaper b—d link drops bestCost(c,d) to 4,
	// which c can only learn if d's restarted node exchanges messages
	// with both peers again.
	for _, ins := range []struct {
		at  types.NodeID
		tup types.Tuple
	}{
		{"d", mincost.Link("d", "b", 2)},
		{"b", mincost.Link("b", "d", 2)},
	} {
		if err := h.With(ins.at, func(n *core.Node) { n.InsertBase(ins.tup) }); err != nil {
			t.Fatal(err)
		}
	}
	probe := func() bool {
		var ok bool
		_ = h.With("c", func(n *core.Node) {
			ok = n.Machine.(*dlog.Machine).Lookup(mincost.BestCost("c", "d", 4))
		})
		return ok
	}
	if err := h.RunUntil(probe, 8*time.Second); err != nil {
		t.Fatalf("post-restart convergence: %v (stats %+v)", err, h.Cluster.Stats())
	}
	h.Settle()

	q := h.NewQuerier()
	v := adversary.Sweep(q, h.Maint, nil, time.Now().Add(2*time.Second), 300*time.Millisecond)
	for _, breach := range v.CheckGuarantee(adversary.Benign, nil, "", true) {
		t.Errorf("audit spanning an honest restart: %s: %v\nfailures: %v", breach, v, v.Failures)
	}
	if len(v.Unresponsive) != 0 {
		t.Errorf("rejoined node should answer audits: %v", v.Unresponsive)
	}
	if len(v.Notes) != 0 {
		t.Errorf("quiesced restart should leave no missing-ack reports: %v", v.Notes)
	}
	if stats := h.Cluster.Stats(); stats.Reconnects == 0 {
		t.Errorf("peers never reconnected to the restarted node (stats %+v)", stats)
	}
}

// TestLiveRestartMidFlight restarts a node without quiescing first, with
// lossy links on top: whatever commitment state the crash destroys, the
// recovery path must convert it into maintainer reports (leads) — the
// audit may see missing acks but never provable evidence against the
// honest crashed node.
func TestLiveRestartMidFlight(t *testing.T) {
	app := mustApp(t, "mincost")
	h, err := New(app, Options{
		Seed:   13,
		LogDir: t.TempDir(),
		Fault: transport.NewFaultPlan(13, transport.FaultRule{
			From: "*", To: "*", Drop: 0.05,
			DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Run briefly — long enough for traffic, not long enough to drain —
	// then pull the plug on d with exchanges still in flight.
	h.RunFor(300 * time.Millisecond)
	if err := h.Restart("d"); err != nil {
		t.Fatal(err)
	}
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Logf("note: %v", err)
	}
	h.Settle()

	q := querierWithin(h, time.Second)
	v := adversary.Sweep(q, h.Maint, nil, time.Now().Add(2*time.Second), 300*time.Millisecond)
	t.Logf("verdict: %v", v)
	for _, breach := range v.CheckGuarantee(adversary.Benign, nil, "", true) {
		t.Errorf("mid-flight restart of an honest node: %s: %v\nfailures: %v", breach, v, v.Failures)
	}
}

// TestConvergedNeedsEveryNodeServed: a node that is down — here taken down
// the way a Restart that failed between stopping the node and starting its
// replacement leaves it — has not converged, whatever its peers' probes
// say; once it is served again the deployment converges again.
func TestConvergedNeedsEveryNodeServed(t *testing.T) {
	h, err := New(mustApp(t, "mincost"), Options{Seed: 17, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.nodes["d"].Stop(); err != nil {
		t.Fatal(err)
	}
	if h.Converged() {
		t.Fatal("Converged holds with d not being served")
	}
	if err := h.startNode("d", true); err != nil {
		t.Fatal(err)
	}
	if err := h.nodes["d"].Seed(); err != nil {
		t.Fatal(err)
	}
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Fatalf("with d back: %v", err)
	}
}
