// Chord Eclipse investigation (§7.3): a compromised DHT node inflates its
// presence in its neighbors' state by lying about its ring position in
// stabilization notifies (and by forging lookup responses). The provenance
// of a poisoned predecessor pointer exposes the forged messages.
package main

import (
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/apps/chord"
	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/simnet"
	"repro/internal/types"
)

func main() {
	cfg := simnet.DefaultConfig()
	cfg.Core.CheckpointEvery = 0
	p := chord.DefaultParams(8)
	p.Duration = 3 * types.Minute
	p.StabilizeEvery = 20 * types.Second
	p.FingerEvery = 20 * types.Second
	w := chord.New(p)
	attacker := chord.NodeName(2)
	lie := adversary.TamperOutputs("eclipse", func(ev types.Event, outs []types.Output) []types.Output {
		for i, o := range outs {
			if o.Kind != types.OutSend || o.Msg.Tuple.Rel != "notify" {
				continue
			}
			// Claim to sit immediately before the successor on the ring, so
			// the successor always adopts the attacker as predecessor.
			tup := o.Msg.Tuple
			succ := tup.Args[0].Node()
			fakeID := (chord.RingID(succ) - 1 + chord.RingSize) % chord.RingSize
			m := *o.Msg
			m.Tuple = types.MakeTuple("notify", tup.Args[0], tup.Args[1], types.I(fakeID))
			outs[i].Msg = &m
		}
		return outs
	})
	cfg.OnNode = adversary.Plan{attacker: {lie}}.Hook()
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		log.Fatal(err)
	}
	net.Run(w.Horizon)

	for _, n := range w.Nodes {
		if n == attacker {
			continue
		}
		m := net.Node(n).Machine.(*dlog.Machine)
		for pr := range m.Tuples("pred") {
			if pr.Args[1].Node() != attacker || pr.Args[2].Int == chord.RingID(attacker) {
				continue
			}
			fmt.Printf("Poisoned state on %s: %s\n", n, pr)
			fmt.Printf("(%s's true ring ID is %d, not %d)\n\n",
				attacker, chord.RingID(attacker), pr.Args[2].Int)
			q := net.QuerierFor(w)
			expl, err := q.Explain(n, pr, core.QueryOpts{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(expl.Format())
			fmt.Printf("\n--> faulty nodes: %v\n", expl.FaultyNodes())
			return
		}
	}
	fmt.Println("no poisoned state found")
}
