// snp-query is the query-frontend binary: the daemon side serves
// provenance queries over framed TCP against a running deployment, and the
// client side submits them.
//
// Serve mode attaches a frontend to deployment daemons started elsewhere
// (snp-node processes, or anything speaking the node RPC protocol). The
// frontend needs no key material of its own: it derives the deployment's
// directory from the app's key seeds, exactly as the daemons do.
//
//	snp-query -serve -addr 127.0.0.1:7070 -app mincost \
//	          -nodes "b=127.0.0.1:9001,c=127.0.0.1:9002,d=127.0.0.1:9003"
//
// Client mode audits through a frontend (this binary's serve mode, or the
// one `snp-node -app ... -queryfront` hosts) and prints the verdict in the
// §4.2 tiers: provable evidence, then unreachable leads.
//
//	snp-query -connect 127.0.0.1:7070 -audit             # whole deployment
//	snp-query -connect 127.0.0.1:7070 -audit -targets b  # named targets
//	snp-query -connect 127.0.0.1:7070 -stats             # frontend counters
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/live"
	"repro/internal/queryfront"
	"repro/internal/transport"
	"repro/internal/types"
)

func main() {
	serve := flag.Bool("serve", false, "run a query frontend (needs -addr, -app, -nodes)")
	addr := flag.String("addr", "127.0.0.1:7070", "serve: listen address for query clients")
	app := flag.String("app", "", "serve: deployment workload ("+strings.Join(live.AppNames(), ", ")+")")
	nodes := flag.String("nodes", "", "serve: comma-separated id=host:port pairs for the deployment's daemons")
	sessions := flag.Int("sessions", 0, "serve: querier-session pool size (0 = default)")
	queueLen := flag.Int("queue", 0, "serve: admission-queue length (0 = default 4x sessions)")

	connect := flag.String("connect", "", "client: frontend address to dial")
	audit := flag.Bool("audit", false, "client: run an audit query")
	targets := flag.String("targets", "", "client: comma-separated audit targets (empty: the whole deployment)")
	stats := flag.Bool("stats", false, "client: print the frontend's FrontStats")
	flag.Parse()

	switch {
	case *serve:
		if err := runServe(*addr, *app, *nodes, *sessions, *queueLen); err != nil {
			log.Fatal(err)
		}
	case *connect != "":
		if err := runClient(*connect, *targets, *audit, *stats); err != nil {
			log.Fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "snp-query: need -serve (daemon mode) or -connect (client mode)")
		flag.Usage()
		os.Exit(2)
	}
}

func runServe(addr, appName, nodes string, sessions, queueLen int) error {
	if nodes == "" {
		return fmt.Errorf("snp-query: -serve needs -nodes (id=host:port,...)")
	}
	app, err := live.AppByName(appName)
	if err != nil {
		return err
	}
	addrs := make(map[types.NodeID]string)
	for _, pair := range strings.Split(nodes, ",") {
		id, hostport, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || hostport == "" {
			return fmt.Errorf("snp-query: malformed -nodes entry %q (want id=host:port)", pair)
		}
		addrs[types.NodeID(id)] = hostport
	}

	cluster := transport.NewCluster()
	defer cluster.Close()
	for id, a := range addrs {
		cluster.AddPeer(id, a)
	}

	// The directory and protocol parameters are the daemons' own derivation
	// from the app, whichever subset of its nodes -nodes lists.
	dep, err := live.NewDeployment(app)
	if err != nil {
		return err
	}
	front, err := queryfront.Serve(queryfront.Config{
		Cluster: cluster, Base: dep.Cfg, Dir: dep.Dir,
		Factory: app.Factory, ConfigureQuerier: app.ConfigureQuerier,
		Sessions: sessions, QueueLen: queueLen,
	}, addr)
	if err != nil {
		return err
	}
	defer front.Close()
	fmt.Printf("serving %s queries on %s (%d peers)\n", app.Name, front.Addr(), len(addrs))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	s := <-sig
	fmt.Printf("%v: draining\n", s)
	fmt.Println("final:", front.Stats())
	return nil
}

func runClient(addr, targets string, doAudit, doStats bool) error {
	cl, err := queryfront.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	if doAudit {
		var ids []types.NodeID
		for _, t := range strings.Split(targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				ids = append(ids, types.NodeID(t))
			}
		}
		v, err := cl.Audit(ids...)
		if err != nil {
			return err
		}
		fmt.Printf("audit finished in %v\n%s", v.Elapsed, v.Format())
	}
	if doStats {
		st, err := cl.Stats()
		if err != nil {
			return err
		}
		fmt.Println(st)
	}
	return nil
}
