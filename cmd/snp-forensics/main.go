// snp-forensics runs one of the §7.3 attack scenarios end to end and
// prints the investigation: the suspicious state, its provenance tree, and
// the identified faulty node.
//
// Usage:
//
//	snp-forensics -scenario badgadget|suppress
//
// To audit a live deployment through its query frontend, use
// snp-query -connect <addr> -audit -stats. The Chord eclipse and MapReduce
// squirrel investigations are programs of their own:
// go run ./examples/chord-eclipse, ./examples/mapreduce-squirrel.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/apps/bgp"
	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/provgraph"
	"repro/internal/simnet"
	"repro/internal/types"
)

func main() {
	scenario := flag.String("scenario", "suppress", "badgadget | suppress (eclipse and squirrel: go run ./examples/chord-eclipse, ./examples/mapreduce-squirrel)")
	flag.Parse()
	switch *scenario {
	case "suppress":
		suppress()
	case "badgadget":
		badGadget()
	default:
		log.Fatalf("unknown scenario %q", *scenario)
	}
}

// suppress: a MinCost router silently drops its advertisements (passive
// evasion); replay of its log exposes the suppressed sends.
func suppress() {
	dropped := 0
	cfg := simnet.DefaultConfig()
	cfg.OnNode = adversary.Plan{"b": {adversary.Suppress(func(m types.Message) bool {
		if m.Dst != "c" || m.Tuple.Rel != "cost" {
			return false
		}
		dropped++
		return true
	})}}.Hook()
	net := simnet.New(cfg)
	w := mincost.New(mincost.Figure2Topology, types.Second, 30*types.Second)
	if err := net.Deploy(w); err != nil {
		log.Fatal(err)
	}
	net.Run(w.Horizon)
	fmt.Printf("Router b silently dropped %d advertisements to c.\n", dropped)
	fmt.Println("Auditing b…")
	q := net.QuerierFor(w)
	if err := q.EnsureAudited("b", 0); err != nil {
		log.Fatal(err)
	}
	q.Auditor.Finalize()
	for _, v := range q.Auditor.Graph().RedVertices() {
		fmt.Printf("  RED: %s\n", v)
	}
}

// badGadget: the §7.2 oscillation — all nodes correct, provenance explains
// the flutter.
func badGadget() {
	net := simnet.New(simnet.DefaultConfig())
	links := []bgp.ASLink{
		{A: "as1", B: "as0", RelAB: bgp.Sibling},
		{A: "as2", B: "as0", RelAB: bgp.Sibling},
		{A: "as3", B: "as0", RelAB: bgp.Sibling},
		{A: "as1", B: "as2", RelAB: bgp.Sibling},
		{A: "as2", B: "as3", RelAB: bgp.Sibling},
		{A: "as3", B: "as1", RelAB: bgp.Sibling},
	}
	w, speakers := bgp.New(links, types.Second, 90*types.Second, nil)
	speakers["as1"].PreferVia("as2")
	speakers["as2"].PreferVia("as3")
	speakers["as3"].PreferVia("as1")
	w.At("as0", 2*types.Second, func(n *core.Node) { speakers["as0"].Announce(n, "10.9.9.0/24") })
	if err := net.Deploy(w); err != nil {
		log.Fatal(err)
	}
	net.Run(w.Horizon)

	q := net.QuerierFor(w)
	if err := q.EnsureAudited("as1", 0); err != nil {
		log.Fatal(err)
	}
	q.Auditor.Finalize()
	g := q.Auditor.Graph()
	flaps := 0
	var last types.Tuple
	for _, v := range g.ByHost("as1") {
		if v.Type == provgraph.VAppear && v.Tuple.Rel == "advRoute" {
			flaps++
			last = v.Tuple
		}
	}
	fmt.Printf("BadGadget: as1's export flapped %d times in 90s (all nodes correct).\n", flaps)
	expl, err := q.Explain("as1", last, core.QueryOpts{Mode: core.ModeAppear, Scope: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Provenance of the most recent flap:")
	fmt.Print(expl.Format())
	fmt.Printf("--> faulty nodes: %v (none: the oscillation is a policy conflict)\n", expl.FaultyNodes())
}
