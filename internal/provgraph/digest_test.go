package provgraph_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/cryptoutil"
	"repro/internal/eval"
)

var update = flag.Bool("update", false, "rewrite testdata/digest.golden from this run")

const (
	digestPath  = "testdata/digest.golden"
	digestRegen = "go test ./internal/provgraph -run TestGraphDigestGolden -update"
)

// digestDeployments are the pinned deployments: honest Quagga, the three
// behaviours the evidence workload arms on it, and one Chord ring, all at the
// go benchmarks' scale and seed 1.
func digestDeployments(t *testing.T) (names []string, runs []*eval.RunResult) {
	t.Helper()
	add := func(name string, cfg eval.ConfigName, o eval.Options) {
		o.Scale, o.Seed = 0.02, 1
		res, err := eval.Run(cfg, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, runs = append(names, name), append(runs, res)
	}
	add("quagga", eval.Quagga, eval.Options{})
	for _, behaviour := range []string{"tamper-log", "equivocate", "suppress"} {
		bad, err := eval.CompromisedFor(eval.Quagga, behaviour, 1)
		if err != nil {
			t.Fatal(err)
		}
		profile, ok := adversary.ProfileByName(behaviour)
		if !ok {
			t.Fatalf("no behaviour %q", behaviour)
		}
		add("quagga/"+behaviour, eval.Quagga, eval.Options{OnNode: adversary.Plan{bad[0]: {profile.New()}}.Hook()})
	}
	add("chord-small", eval.ChordSmall, eval.Options{})
	return names, runs
}

// TestGraphDigestGolden pins what one cold whole-deployment audit builds and
// checks: the graph digest (every vertex, color, interval end and edge, in
// insertion order) and the auditor's logical verification and verify-cache
// hit counts. The file was generated at the commit before provgraph's string
// keys were replaced by indexes; any representation change must reproduce it
// byte for byte, at any GOMAXPROCS.
func TestGraphDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("five deployment runs and audits; skipped in -short mode")
	}
	names, runs := digestDeployments(t)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# One cold adversary.AuditAll per deployment at scale 0.02, seed 1.\n# Regenerate: %s\n", digestRegen)
	for i, res := range runs {
		q := res.NewQuerier()
		cryptoutil.DefaultVerifyCache.Reset()
		adversary.AuditAll(q, res.Net.Maintainer)
		g, st := q.Auditor.Graph(), q.Auditor.Stats.Snapshot()
		fmt.Fprintf(&sb, "%s vertices=%d edges=%d verifies=%d verify-cache-hits=%d digest=%s\n",
			names[i], g.Len(), g.EdgeCount(), st.Verifies, st.VerifyCacheHits, g.Digest())
	}
	got := sb.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (generate with: %s)", err, digestRegen)
	}
	if got != string(want) {
		t.Errorf("audited graphs moved:\n got:\n%s\nwant:\n%s\nif they were meant to move, regenerate with: %s", got, want, digestRegen)
	}
}
