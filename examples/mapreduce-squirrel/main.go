// The Figure 4 investigation: a corrupt map worker injects 9,991 bogus
// "squirrel" pairs; the analyst queries the provenance of the suspicious
// output (squirrel, ~10000) and drills down to the forged intermediate
// tuples, which turn red.
package main

import (
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/apps/mapreduce"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

func main() {
	cfg := simnet.DefaultConfig()
	cfg.Core.CheckpointEvery = 0
	cfg.Core.Tbatch = 100 * types.Millisecond
	splits := workload.Corpus(7, 8, 4<<10)
	w := mapreduce.New(mapreduce.Job{
		Mappers: 8, Reducers: 4, Splits: splits,
		StartAt: types.Second, ReduceAt: 20 * types.Second, Duration: 30 * types.Second,
	})
	badMapper := mapreduce.MapperName(3) // "Map-3" in the paper's figure
	reducer := mapreduce.Partition("squirrel", mapreduce.Reducers(w.Nodes))
	injected := false
	inject := adversary.TamperOutputs("squirrel", func(ev types.Event, outs []types.Output) []types.Output {
		if injected || ev.Kind != types.EvIns || ev.Tuple.Rel != "split" {
			return outs
		}
		injected = true
		forged := mapreduce.MapOut(reducer, badMapper, "squirrel", 9991)
		return append(outs, types.Output{Kind: types.OutSend, Msg: &types.Message{
			Src: badMapper, Dst: reducer, Pol: types.PolAppear, Tuple: forged,
			SendTime: ev.Time, Seq: 9999,
		}})
	})
	cfg.OnNode = adversary.Plan{badMapper: {inject}}.Hook()
	net := simnet.New(cfg)
	if err := net.Deploy(w); err != nil {
		log.Fatal(err)
	}
	net.Run(w.Horizon)

	total := net.Node(reducer).Machine.(*mapreduce.Machine).Outputs()["squirrel"]
	fmt.Printf("WordCount finished. Suspicious output: (squirrel, %d)\n", total)
	fmt.Printf("(the honest corpus contains only %d squirrels)\n\n",
		workload.CountWord(splits, "squirrel"))

	q := net.QuerierFor(w)
	expl, err := q.Explain(reducer, mapreduce.Out(reducer, "squirrel", total), core.QueryOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(expl.Format())
	fmt.Printf("\n--> faulty nodes: %v\n", expl.FaultyNodes())
}
