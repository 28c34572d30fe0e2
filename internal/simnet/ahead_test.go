package simnet_test

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/eval"
	"repro/internal/seclog"
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
// returns, so no check the pool was handed lands in the verification cache
// after it: once a Reset follows Run, every commitment sent during the run
// is neither cached nor being checked. The horizons cut MinCost's exchange
// every 20 ms from 1 s to 3 s, mostly with envelopes and acks in
// flight, whose checks a pool left running would still be finishing.
func TestRunLeavesNoGoroutine(t *testing.T) {
	type commitment struct {
		from types.NodeID
		t    types.Time
		hash []byte
		sig  string
	}
	var (
		mu    sync.Mutex
		sent  []commitment
		total int
	)
	cfg := simnet.DefaultConfig()
	cfg.OnNode = func(n *core.Node) {
		n.TamperPacket = func(_ types.NodeID, pkt *core.Packet) []*core.Packet {
			if ct, hash, sig := pkt.Commitment(); hash != nil {
				mu.Lock()
				sent = append(sent, commitment{n.ID, ct, hash, string(sig)})
				mu.Unlock()
			}
			return []*core.Packet{pkt}
		}
	}
	net := simnet.New(cfg)
	if err := net.Deploy(figure2()); err != nil {
		t.Fatal(err)
	}
	for horizon := types.Second; horizon < 3*types.Second; horizon += 20 * types.Millisecond {
		sent = sent[:0]
		net.Run(horizon)
		cryptoutil.DefaultVerifyCache.Reset()
		checked := map[string]bool{}
		for _, c := range sent {
			if checked[c.sig] {
				continue // a retransmission
			}
			checked[c.sig] = true
			pub, err := net.Dir.Key(c.from)
			if err != nil {
				t.Fatal(err)
			}
			check := seclog.ReserveCommitment(pub, c.t, c.hash, []byte(c.sig))
			if check == nil {
				t.Fatalf("%s's commitment at %v is cached or being checked after Run and Reset", c.from, c.t)
			}
			check()
		}
		cryptoutil.DefaultVerifyCache.Reset()
		total += len(checked)
	}
	if total == 0 {
		t.Fatal("no commitment sent: the test checked nothing")
	}
}
