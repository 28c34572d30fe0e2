// BGP forensics: the §7.2/§7.3 Quagga scenarios. Runs the 10-network
// topology, triggers a policy-induced route disappearance and a route
// hijack, then investigates both with dynamic provenance queries.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/apps/bgp"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
)

func main() {
	cfg := simnet.DefaultConfig()
	net := simnet.New(cfg)
	w, speakers := bgp.New(bgp.DefaultTopology(), types.Second, 5*types.Minute, nil)
	// as30's policy refuses to export routes via the tier-1 as10; pin
	// as10's own choice away from as30 so the alternative actually reaches
	// as30.
	r1 := speakers["as30"]
	r1.ExportFilter = func(to types.NodeID, prefix, path string) bool {
		return strings.Contains(path, "as10")
	}
	speakers["as10"].PreferVia("as40")

	w.At("as51", 5*types.Second, func(n *core.Node) { speakers["as51"].Announce(n, "10.0.0.0/24") })
	// Traffic-engineering change at t=60s: as30 now prefers via as10;
	// combined with its export filter, as52 loses its route.
	w.At("as30", 60*types.Second, func(*core.Node) { r1.PreferVia("as10") })
	// At t=120s, as61 hijacks the prefix with a fabricated import.
	w.At("as61", 120*types.Second, func(n *core.Node) {
		bogus := bgp.AdvRoute("as61", "10.0.0.0/24", "as99", "as99")
		n.InsertMaybe(bgp.ExportRule,
			bgp.AdvRoute("as40", "10.0.0.0/24", "as61 as99", "as61"),
			[]types.Tuple{bogus}, nil)
	})
	if err := net.Deploy(w); err != nil {
		log.Fatal(err)
	}
	net.Run(w.Horizon)

	fmt.Println("=== Query 1 (Quagga-Disappear): why did as52's route vanish? ===")
	q := net.QuerierFor(w)
	gone := bgp.AdvRoute("as52", "10.0.0.0/24", "as30 as51", "as30")
	expl, err := q.Explain("as52", gone, core.QueryOpts{Mode: core.ModeDisappear})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(expl.Format())
	fmt.Printf("--> benign: faulty nodes = %v (the withdrawal traces to as30's policy)\n\n", expl.FaultyNodes())

	fmt.Println("=== Query 2: who hijacked 10.0.0.0/24? ===")
	q2 := net.QuerierFor(w)
	hijacked := bgp.AdvRoute("as40", "10.0.0.0/24", "as61 as99", "as61")
	expl2, err := q2.Explain("as40", hijacked, core.QueryOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(expl2.Format())
	fmt.Printf("--> faulty nodes: %v\n", expl2.FaultyNodes())
}
