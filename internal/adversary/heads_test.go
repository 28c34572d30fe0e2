package adversary_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/eval"
	"repro/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite testdata/heads.golden from this run")

const (
	headsPath  = "testdata/heads.golden"
	headsRegen = "go test ./internal/adversary -run TestWorkloadHeadsGolden -update"
	headsScale = 0.02
)

// writeHeads renders every node's final log sequence number and chain-head
// hash, in node order. The head hash covers every entry the node ever
// appended — timestamps, peers' signatures, sequence numbers — so two runs
// with equal lines executed the same events in the same order under the
// same keys.
func writeHeads(sb *strings.Builder, label string, net *simnet.Net) {
	for _, id := range net.Nodes() {
		lg := net.Node(id).Log
		fmt.Fprintf(sb, "%s %s seq=%d head=%x\n", label, id, lg.Len(), lg.HeadHash())
	}
}

// TestWorkloadHeadsGolden pins the honest run of every workload definition
// the simulator drives — each adversary.Apps() entry at seed 1, and eval.Run
// of all five configurations at the golden scale — down to each node's log
// head. It is the bit-identity gate for changes to how workloads are
// defined or deployed: the integer series of catalog.golden can survive a
// reordering of same-instant events or a changed key, a chain head cannot.
func TestWorkloadHeadsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every conformance app and the five evaluation configurations")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Final log sequence number and chain-head hash of every node: adversary.Apps() at seed 1 (honest),\n"+
		"# then eval.Run of the five configurations at scale %v, seed 1.\n# Regenerate: %s\n", headsScale, headsRegen)
	for _, build := range adversary.Apps() {
		app := build(1)
		cfg := simnet.DefaultConfig()
		cfg.Seed = 1
		net := simnet.New(cfg)
		if err := net.Deploy(app); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		net.Run(app.Horizon)
		writeHeads(&sb, "adversary/"+app.Name, net)
	}
	for _, name := range eval.AllConfigs {
		res, err := eval.Run(name, eval.Options{Scale: headsScale, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		writeHeads(&sb, "eval/"+string(name), res.Net)
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(headsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(headsPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	t.Logf("if the heads were meant to move, regenerate %s with: %s", headsPath, headsRegen)
}
