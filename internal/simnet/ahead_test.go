package simnet_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/eval"
	"repro/internal/simnet"
	"repro/internal/types"
)

// aheadAnswered checks that Run's verify-ahead pool had checked every
// commitment a node verified at delivery: on a cold verification cache each
// node's VerifyCacheHits equals its Verifies.
func aheadAnswered(t *testing.T, net *simnet.Net) {
	t.Helper()
	for _, id := range net.Nodes() {
		st := net.Node(id).Stats.Snapshot()
		if st.Verifies == 0 || st.VerifyCacheHits != st.Verifies {
			t.Errorf("%s: verifies=%d verify-cache-hits=%d, want equal and nonzero", id, st.Verifies, st.VerifyCacheHits)
		}
	}
}

// TestVerifyAheadAnswersEveryCheck: every envelope and ack signature a node
// checks at delivery was checked ahead while the packet was in flight — on
// the Figure 2 MinCost network, and on the Quagga run of the Fig. 7 catalog
// row, whose logical Signs and Verifies stay the golden file's.
func TestVerifyAheadAnswersEveryCheck(t *testing.T) {
	t.Run("mincost", func(t *testing.T) {
		cryptoutil.DefaultVerifyCache.Reset()
		aheadAnswered(t, runMinCost(t, nil))
	})
	t.Run("quagga", func(t *testing.T) {
		golden, err := os.ReadFile("../eval/testdata/catalog.golden")
		if err != nil {
			t.Fatal(err)
		}
		var want cryptoutil.StatsSnapshot
		for _, line := range strings.Split(string(golden), "\n") {
			if strings.HasPrefix(line, "Fig7Quagga ") {
				if _, err := fmt.Sscanf(line, "Fig7Quagga signs=%d verifies=%d", &want.Signs, &want.Verifies); err != nil {
					t.Fatal(err)
				}
			}
		}
		cryptoutil.DefaultVerifyCache.Reset()
		res, err := eval.Run(eval.Quagga, eval.Options{Scale: 0.02, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		aheadAnswered(t, res.Net)
		if got := res.Net.CryptoStats(); got.Signs != want.Signs || got.Verifies != want.Verifies || want.Signs == 0 {
			t.Errorf("signs=%d verifies=%d, catalog.golden has %d and %d", got.Signs, got.Verifies, want.Signs, want.Verifies)
		}
	})
}

// TestRunLeavesNoGoroutine: Run joins its verify-ahead pool before it
// returns, so no check lands in the verification cache after it (a Reset
// then empties it for good).
func TestRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	net := simnet.New(simnet.DefaultConfig())
	if err := net.Deploy(figure2()); err != nil {
		t.Fatal(err)
	}
	net.Run(10 * types.Second)
	net.Run(30 * types.Second)
	// Goroutines of earlier tests may still be exiting, never starting.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
}
