// snp-node is the multi-process deployment binary: one image that serves as
// both the per-node daemon and the supervisor that launches a fleet of them.
//
// Daemon mode runs a single node to completion — load the config, recover
// the on-disk log if asked, serve the framed-TCP transport, drive the
// workload on a wall-clock tick loop, drain gracefully on SIGTERM:
//
//	snp-node -config node.json
//
// Supervise mode launches a whole deployment of daemon processes (re-exec'ing
// this same binary per node), keeps them alive through crashes, and reports
// health until interrupted:
//
//	snp-node -app quagga -dir /tmp/snp -seed 1
//
// The supervisor also spawns its children through this executable when it is
// the child image, via the SNP_NODE_CONFIG environment variable — which is
// why MaybeChild runs before flag parsing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/live"
	"repro/internal/supervisor"
	"repro/internal/types"
)

func main() {
	supervisor.MaybeChild()

	config := flag.String("config", "", "run one node daemon from this NodeConfig file and exit when it stops")
	app := flag.String("app", "", "supervise mode: workload to deploy ("+strings.Join(live.AppNames(), ", ")+")")
	dir := flag.String("dir", "", "supervise mode: deployment root (configs, per-node logs, data stores)")
	seed := flag.Int64("seed", 1, "supervise mode: deployment seed (transport and backoff jitter)")
	tickMs := flag.Int("tick-ms", 0, "supervise mode: per-node tick period in ms (0 = daemon default)")
	syncEvery := flag.Int("sync-every", 0, "supervise mode: ticks between durable log syncs (0 = daemon default)")
	queryFront := flag.String("queryfront", "", "supervise mode: also host a query frontend on this listen address (e.g. 127.0.0.1:7070); snp-query -connect dials it")
	flag.Parse()

	switch {
	case *config != "":
		cfg, err := supervisor.LoadNodeConfig(*config)
		if err != nil {
			log.Fatal(err)
		}
		if err := supervisor.RunDaemon(cfg); err != nil {
			log.Fatal(err)
		}
	case *app != "":
		if err := supervise(*app, *dir, *seed, *tickMs, *syncEvery, *queryFront); err != nil {
			log.Fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "snp-node: need -config (daemon mode) or -app (supervise mode)")
		flag.Usage()
		os.Exit(2)
	}
}

func supervise(app, dir string, seed int64, tickMs, syncEvery int, queryFront string) error {
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "snp-node-*")
		if err != nil {
			return err
		}
		fmt.Println("deployment root:", dir)
	}
	sup, err := supervisor.New(supervisor.Options{
		Dir:        dir,
		Seed:       seed,
		App:        app,
		TickMs:     tickMs,
		SyncEvery:  syncEvery,
		QueryFront: queryFront,
	})
	if err != nil {
		return err
	}
	if err := sup.Start(); err != nil {
		sup.Stop(2 * time.Second)
		return err
	}

	addrs := sup.Addrs()
	ids := make([]string, 0, len(addrs))
	for id := range addrs {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("%-8s %s\n", id, addrs[types.NodeID(id)])
	}
	if front := sup.Front(); front != nil {
		fmt.Printf("%-8s %s\n", "queryfront", front.Addr())
	}

	if err := sup.WaitHealthy(30 * time.Second); err != nil {
		fmt.Println("not healthy:", err)
	} else {
		fmt.Println("all nodes healthy")
	}
	if err := sup.WaitConverged(60 * time.Second); err != nil {
		fmt.Println("not converged:", err)
	} else {
		fmt.Println("workload converged")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	s := <-sig
	fmt.Printf("%v: stopping deployment\n", s)
	if err := sup.Stop(5 * time.Second); err != nil {
		return err
	}
	if failed := sup.Failed(); len(failed) != 0 {
		return fmt.Errorf("nodes failed: %v", failed)
	}
	return nil
}
