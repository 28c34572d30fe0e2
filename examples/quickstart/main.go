// Quickstart: the paper's §3.3 MinCost example. Five routers compute
// lowest-cost paths under SNP; we then ask "why does bestCost(@c,d,5)
// exist?" and print the Figure 2 provenance tree.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
)

func main() {
	net := simnet.New(simnet.DefaultConfig())
	w := mincost.New(mincost.Figure2Topology, types.Second, 30*types.Second)
	if err := net.Deploy(w); err != nil {
		log.Fatal(err)
	}
	net.Run(w.Horizon)

	fmt.Println("MinCost network converged. Querying the provenance of bestCost(@c,d,5)…")
	q := net.QuerierFor(w)
	expl, err := q.Explain("c", mincost.BestCost("c", "d", 5), core.QueryOpts{})
	if err != nil {
		log.Fatalf("query failed: %v", err)
	}
	fmt.Println()
	fmt.Print(expl.Format())
	fmt.Printf("\n%d vertices in the answer; downloaded %d bytes of logs, %d of authenticators.\n",
		expl.Size(), q.Metrics.LogBytes, q.Metrics.AuthBytes)
	if len(expl.FaultyNodes()) == 0 {
		fmt.Println("No red vertices: every derivation checked out (all nodes are correct).")
	}
}
