package eval_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/seclog"
	"repro/internal/simnet"
	"repro/internal/types"
)

// closedQuaggaRun runs Quagga with store-backed logs under dir and closes
// the stores, returning the finished run and each node's log length and
// head hash at the close.
func closedQuaggaRun(t *testing.T, dir string) (*eval.RunResult, map[types.NodeID][]byte, map[types.NodeID]uint64) {
	t.Helper()
	res, err := eval.Run(eval.Quagga, eval.Options{Scale: 0.02, LogDir: dir, LogHotTail: eval.DefaultHotTail})
	if err != nil {
		t.Fatal(err)
	}
	heads := make(map[types.NodeID][]byte)
	lens := make(map[types.NodeID]uint64)
	for _, id := range res.Net.Nodes() {
		lg := res.Net.Node(id).Log
		heads[id] = bytes.Clone(lg.HeadHash())
		lens[id] = lg.Len()
	}
	if err := res.Net.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	return res, heads, lens
}

// redeploy builds a fresh network over res's closed stores, every node
// recovering its log, and deploys res's workload on it.
func redeploy(res *eval.RunResult) (*simnet.Net, error) {
	cfg := res.Net.Cfg
	cfg.Core.LogRecover = true
	net := simnet.New(cfg)
	return net, net.Deploy(res.Workload)
}

// TestRedeployRecoversEveryNode: a store-backed Quagga deployment, closed
// and redeployed twice over its stores, comes back whole each time: every
// node's log length and head as at the close, the same missing-ack notes
// from both redeploys, and an audit of the recovered deployment that
// implicates nobody and finds every node responsive. Deploy recovers the
// nodes concurrently, so this runs under -race at several -cpu settings.
func TestRedeployRecoversEveryNode(t *testing.T) {
	res, heads, lens := closedQuaggaRun(t, t.TempDir())
	var notes []core.MissingAckNote
	for round := 1; round <= 2; round++ {
		net, err := redeploy(res)
		if err != nil {
			t.Fatalf("redeploy %d: %v", round, err)
		}
		if got := len(net.Nodes()); got != len(heads) {
			t.Fatalf("redeploy %d: %d nodes, want %d", round, got, len(heads))
		}
		for id, head := range heads {
			lg := net.Node(id).Log
			if lg.Len() != lens[id] || !bytes.Equal(lg.HeadHash(), head) {
				t.Fatalf("redeploy %d: %s recovered %d entries, want %d, or another head", round, id, lg.Len(), lens[id])
			}
		}
		got := net.Maintainer.Notes()
		if round > 1 && !reflect.DeepEqual(got, notes) {
			t.Fatalf("redeploy %d: missing-ack notes %v, want %v", round, got, notes)
		}
		notes = got
		v := adversary.AuditAll(net.QuerierFor(res.Workload), net.Maintainer)
		if strong := v.StrongNodes(); len(strong) != 0 || len(v.Unresponsive) != 0 {
			t.Fatalf("redeploy %d: audit implicates %v, unresponsive %v", round, strong, v.Unresponsive)
		}
		if err := net.CloseLogs(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRedeployIssuesNoInputTwice: a recovered Quagga deployment run past
// its horizon resumes its periodic polls only. Its trace inputs are in the
// recovered logs, so not one EIns entry is appended, and the deployment
// stays clean under audit.
func TestRedeployIssuesNoInputTwice(t *testing.T) {
	res, _, lens := closedQuaggaRun(t, t.TempDir())
	net, err := redeploy(res)
	if err != nil {
		t.Fatal(err)
	}
	defer net.CloseLogs()
	net.Run(res.Workload.Horizon + 5*types.Second)
	inserts := 0
	for _, id := range net.Nodes() {
		lg := net.Node(id).Log
		for seq := lens[id] + 1; seq <= lg.Len(); seq++ {
			e, err := lg.Entry(seq)
			if err != nil {
				t.Fatal(err)
			}
			if e.Type == seclog.EIns {
				inserts++
			}
		}
	}
	if inserts != 0 {
		t.Errorf("the recovered deployment appended %d EIns entries, want 0: it issued recovered inputs again", inserts)
	}
	v := adversary.AuditAll(net.QuerierFor(res.Workload), net.Maintainer)
	if strong := v.StrongNodes(); len(strong) != 0 || len(v.Unresponsive) != 0 {
		t.Errorf("audit implicates %v, unresponsive %v", strong, v.Unresponsive)
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	des, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(des)
}

// TestFailedRedeployLeaksNothing: a redeploy over stores two of which Open
// refuses fails with the error of the earlier of the two in the workload's
// node order, and leaves no store open once the deployed nodes' logs are
// closed, although Deploy built the nodes after the failing one too.
func TestFailedRedeployLeaksNothing(t *testing.T) {
	dir := t.TempDir()
	res, _, _ := closedQuaggaRun(t, dir)
	nodes := res.Workload.Nodes
	first, second := nodes[3], nodes[len(nodes)-3]
	path := func(id types.NodeID) string { return filepath.Join(dir, string(id)+".seglog") }
	for _, id := range []types.NodeID{first, second} {
		// Cut the tail file, header and all: Open refuses it by name.
		if err := os.Truncate(path(id), 0); err != nil {
			t.Fatal(err)
		}
	}
	before := openFDs(t)
	net, err := redeploy(res)
	if err == nil || !strings.Contains(err.Error(), path(first)) || strings.Contains(err.Error(), path(second)) {
		t.Fatalf("redeploy over damaged %s and %s: error %v, want %s's", first, second, err, first)
	}
	if err := net.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d open descriptors after the failed redeploy, %d before", after, before)
	}
}
