package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/apps/bgp"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/eval"
	"repro/internal/provgraph"
	"repro/internal/queryfront"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/types"
)

// sizes are the constants that fix a workload's inputs. Only clients follows
// the machine.
type sizes struct {
	nodeScale, wireScale, evidScale, warmScale eval.Scale

	minRepeats, maxRepeats int // per timed phase; the time box decides in between
	restarts               int // recovery redeploys after each node-store run
	coldAudits             int // cold whole-deployment audits of query-wire
	clients                int // closed-loop clients of query-wire
}

// clients is C, the number of closed-loop clients (and frontend sessions) of
// query-wire: half the CPUs, between 1 and 4. The frontend, the node
// handlers and the collector run in the same process; at C = nproc the loop
// saturates every CPU, and on a shared 2-CPU host throughput then varied
// 22-35 queries/s between identical runs, against 17.7-18.8 at C = 1.
func clients() int { return max(1, min(runtime.NumCPU()/2, 4)) }

// fullSizes keeps every timed sample short (one to two seconds, a restart a
// tenth of that) and lets the time box fit many of them into a run: a short
// sample lies close to the probes of the host's speed that bracket it, and
// the median of ten samples is steadier than the median of three.
func fullSizes() sizes {
	return sizes{nodeScale: 0.03, wireScale: 0.02, evidScale: 0.02, warmScale: 0.01,
		minRepeats: 3, maxRepeats: 40, restarts: 2, coldAudits: 4, clients: clients()}
}

func smokeSizes() sizes {
	return sizes{nodeScale: 0.01, wireScale: 0.01, evidScale: 0.01, warmScale: 0.01,
		minRepeats: 1, maxRepeats: 1, restarts: 1, coldAudits: 1, clients: clients()}
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	smoke    bool
	trace    bool
	tmpDir   string
	traceDir string
	sz       sizes
}

// run is the state one workload carries through its phases.
type run struct {
	cfg  config
	res  *result
	host *host
	tr   *tracer // nil when untraced
	dir  string  // scratch directory; removed, with all it holds, when the workload ends
	dirs int
}

func (r *run) freshDir(name string) string {
	r.dirs++
	return filepath.Join(r.dir, fmt.Sprintf("%s-%d", name, r.dirs))
}

// repeats returns the repeat bounds and time box of one timed phase. The
// traced run splits the box between a short untraced reference arm and the
// traced arm: it exists for the breakdown, not for the end-to-end medians.
func (r *run) repeats(traced bool) (lo, hi int, seconds float64) {
	switch {
	case !r.cfg.trace || r.cfg.smoke:
		return r.cfg.sz.minRepeats, r.cfg.sz.maxRepeats, r.cfg.seconds
	case traced:
		return 2, r.cfg.sz.maxRepeats, r.cfg.seconds / 2
	default:
		return 1, r.cfg.sz.maxRepeats, r.cfg.seconds / 2
	}
}

// coldAudits is how many cold audits query-wire makes: a fixed number, so
// that the time box goes to the steady phase, whose percentiles need the
// samples.
func (r *run) coldAudits(traced bool) int {
	switch {
	case !r.cfg.trace || r.cfg.smoke:
		return r.cfg.sz.coldAudits
	case traced:
		return 2
	default:
		return 1
	}
}

// timedPhase repeats fn in the time box. The peak of the live heap over one
// repeat is one sample of peak_heap_mb.
func (r *run) timedPhase(lo, hi int, box float64, fn func(i int)) {
	timebox(lo, hi, box, func(i int) {
		heap := startHeapSampler()
		fn(i)
		r.res.add("peak_heap_mb", heap.peakMiB())
	})
}

// setUp times build as setup_s. Short set-ups are built several times (all
// but the last torn down again) so that the reported value is steady; a
// set-up that takes seconds is its own average. build marks the stopwatch
// between its parts, so that a long set-up is normalised piece by piece.
func setUp[T any](r *run, build func(sw *stopwatch) (T, func(), error)) (T, func(), error) {
	times := 5
	if r.cfg.trace || r.cfg.smoke {
		times = 1
	}
	start := time.Now()
	for i := 1; ; i++ {
		sw := r.host.start()
		st, down, err := build(sw)
		if err != nil {
			return st, nil, err
		}
		r.res.add("setup_s", sw.pause().norm)
		if i >= times || time.Since(start) > 3*time.Second {
			return st, down, nil
		}
		down()
	}
}

// ---------------------------------------------------------------------------
// node-mem and node-store: the node-side commitment path.

// series is everything about a finished run that a seed fixes exactly.
type series struct {
	Fig5   eval.Fig5Row
	Logs   simnet.LogStats
	Crypto cryptoutil.StatsSnapshot
	Heads  string // every node's log length and head hash
}

// heads digests every node's log position; recovery and repeats must
// reproduce it exactly.
func heads(net *simnet.Net) string {
	var sb strings.Builder
	for _, id := range net.Nodes() {
		lg := net.Node(id).Log
		fmt.Fprintf(&sb, "%s:%d:%s ", id, lg.Len(), hex.EncodeToString(lg.HeadHash()))
	}
	return sb.String()
}

// nodeRep is one finished Quagga run.
type nodeRep struct {
	lap    lap
	series series
	dur    types.Time
	net    *simnet.Net
	dir    string // LogDir when store-backed
	tables int
}

// quaggaRun executes one cold Quagga deployment. Store-backed runs close
// their logs inside the timed region: a node is not done until its history
// is durable.
func (r *run) quaggaRun(scale eval.Scale, store bool, workers int) (*nodeRep, error) {
	o := eval.Options{Scale: scale, Seed: r.cfg.seed, SimWorkers: workers}
	if store {
		o.LogDir = r.freshDir("store")
		o.LogHotTail = eval.DefaultHotTail
		if err := os.MkdirAll(o.LogDir, 0o755); err != nil {
			return nil, err
		}
	}
	coldState()
	sw := r.host.start()
	res, err := eval.Run(eval.Quagga, o)
	if err != nil {
		return nil, err
	}
	rep := &nodeRep{dur: res.Duration, net: res.Net, dir: o.LogDir}
	if store {
		for _, id := range res.Net.Nodes() {
			rep.tables += res.Net.Node(id).Log.StoreTables()
		}
		if err := res.Net.CloseLogs(); err != nil {
			return nil, err
		}
	}
	rep.lap = sw.pause()
	rep.series = series{Fig5: eval.Figure5(res), Logs: res.Net.LogStats(),
		Crypto: res.Net.CryptoStats(), Heads: heads(res.Net)}
	return rep, nil
}

// restart redeploys onto a fresh network that recovers the closed stores
// under dir (core.NewNode's recovery path: seclog.Open plus the machine
// rebuild) and returns the recovered network, still open, with the time the
// redeploy took.
func (r *run) restart(dir string, dur types.Time) (*simnet.Net, lap, error) {
	cfg := simnet.DefaultConfig()
	cfg.Seed = r.cfg.seed
	cfg.Core.LogDir = dir
	cfg.Core.LogHotTail = eval.DefaultHotTail
	cfg.Core.LogRecover = true
	coldState()
	sw := r.host.start()
	net := simnet.New(cfg)
	if _, err := bgp.Deploy(net, bgp.DefaultTopology(), types.Second, dur); err != nil {
		_ = net.CloseLogs()
		return nil, lap{}, err
	}
	return net, sw.pause(), nil
}

// memSeries is node-mem's series, kept so that node-store can be held to it
// when both run in one invocation.
var memSeries *series

func nodeWorkload(r *run, store bool) error {
	sz := r.cfg.sz
	// Set-up: compile the BGP program and push one small deployment through
	// the whole path, so the first timed repeat does not pay for growing the
	// heap and faulting in the binary.
	_, _, err := setUp(r, func(*stopwatch) (struct{}, func(), error) {
		if err := bgp.Program().Err(); err != nil {
			return struct{}{}, nil, err
		}
		_, err := r.quaggaRun(sz.warmScale, store, 0)
		return struct{}{}, func() {}, err
	})
	if err != nil {
		return err
	}

	var first *series
	var last *nodeRep
	var walls []float64
	lo, hi, box := r.repeats(r.cfg.trace)
	before := readRuntimeCounters()
	r.timedPhase(lo, hi, box, func(i int) {
		q := r.tr.begin("node.run", -1, i)
		rep, err := r.quaggaRun(sz.nodeScale, store, 0)
		r.tr.end(q)
		if !r.res.op(err) {
			return
		}
		last = rep
		walls = append(walls, rep.lap.raw)
		s := rep.series
		if first == nil {
			first = &s
		} else if s != *first {
			r.res.fail("determinism: repeat %d of seed %d differs: %+v vs %+v", i, r.cfg.seed, s, *first)
		}
		msgs := float64(s.Fig5.Messages)
		r.res.add("node_msgs_per_s", msgs/rep.lap.raw)
		r.res.add("ops_per_s", msgs/rep.lap.norm)
		if !store {
			r.res.add("cold_s", rep.lap.norm)
			r.res.add("traffic_factor", s.Fig5.Factor)
			r.res.add("log_bytes_per_msg", float64(s.Logs.GrossBytes)/msgs)
			return
		}
		disk, err := dirBytes(rep.dir)
		if err != nil {
			r.res.fail("node-store: %v", err)
			return
		}
		r.res.add("disk_bytes_per_log_byte", float64(disk)/float64(s.Logs.GrossBytes))
		for k := 0; k < sz.restarts; k++ {
			net, took, err := r.restart(rep.dir, rep.dur)
			if err == nil && heads(net) != s.Heads {
				err = fmt.Errorf("node-store: recovered logs diverge: %s vs %s", heads(net), s.Heads)
			}
			if net != nil {
				if cerr := net.CloseLogs(); err == nil {
					err = cerr
				}
			}
			if r.res.op(err) {
				r.res.add("restart_s", took.raw)
				r.res.add("cold_s", took.norm)
			}
		}
	})
	if last == nil {
		return fmt.Errorf("%s: no run completed", r.res.Workload)
	}
	if store {
		if memSeries != nil && (first.Fig5 != memSeries.Fig5 || first.Logs != memSeries.Logs) {
			r.res.fail("determinism: node-store series %+v %+v differ from node-mem's %+v %+v",
				first.Fig5, first.Logs, memSeries.Fig5, memSeries.Logs)
		}
	} else {
		memSeries = first
	}
	if r.cfg.trace {
		return nodeLayers(r, store, last, walls, before)
	}
	return nil
}

// ---------------------------------------------------------------------------
// query-wire: what a remote analyst waits for.

// wireState is a store-backed Quagga deployment served over loopback TCP,
// with the Explain queries the steady phase asks and their reference
// answers.
type wireState struct {
	res     *eval.RunResult
	cluster *transport.Cluster
	nodes   []types.NodeID
	base    core.Config
	run     series // the deployment run's exact counts, before any audit added to them

	explains []explainRef // the steady phase's Explain queries, asked round robin
}

// explainRef is one Explain query with its in-process reference answer.
type explainRef struct {
	req      queryfront.ExplainRequest
	vertices int            // size of the reference explanation
	touched  []types.NodeID // nodes the reference Explain audited
}

func bgpValidator(q *core.Querier) { q.Auditor.Builder.MaybeValidator = bgp.ValidateExport }

func (r *run) buildWire(sw *stopwatch) (*wireState, func(), error) {
	dir := r.freshDir("wire")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	coldState()
	res, err := eval.Run(eval.Quagga, eval.Options{Scale: r.cfg.sz.wireScale, Seed: r.cfg.seed,
		LogDir: dir, LogHotTail: eval.DefaultHotTail})
	if err != nil {
		return nil, nil, err
	}
	sw.mark()
	st := &wireState{res: res, cluster: transport.NewCluster(), nodes: res.Net.Nodes(), base: res.Net.Cfg.Core,
		run: series{Fig5: eval.Figure5(res), Crypto: res.Net.CryptoStats()}}
	st.base.LogDir = ""
	down := func() {
		st.cluster.Close()
		_ = res.Net.CloseLogs()
	}
	st.cluster.SetMaintainer(res.Net.Maintainer)
	for _, id := range st.nodes {
		if _, err := st.cluster.Serve(res.Net.Node(id), "127.0.0.1:0"); err != nil {
			down()
			return nil, nil, err
		}
	}
	if err := st.findExplains(); err != nil {
		down()
		return nil, nil, err
	}
	return st, down, nil
}

// findExplains picks the steady phase's Explain queries the way
// eval.QuaggaDisappearQuery picks its one: for every stub, the first
// disappeared advRoute it saw, if any (ModeDisappear, scope 12). Asking about
// every stub's route in turn keeps the mix from depending on which provider
// one seed's first route happened to come through. Each is answered in
// process for reference.
func (st *wireState) findExplains() error {
	opts := core.QueryOpts{Mode: core.ModeDisappear, Scope: 12}
	for _, stub := range st.nodes {
		if stub < "as50" {
			continue // tier-1 and regional networks
		}
		q := st.res.NewQuerier()
		q.Parallelism = 1
		if err := q.EnsureAudited(stub, 0); err != nil {
			return err
		}
		q.Auditor.Finalize()
		for _, v := range q.Auditor.Graph().ByHost(stub) {
			if v.Type != provgraph.VBelieveDisappear || v.Tuple.Rel != "advRoute" {
				continue
			}
			expl, err := q.Explain(stub, v.Tuple, opts)
			if err != nil {
				return err
			}
			ref := explainRef{vertices: expl.Size(),
				req: queryfront.ExplainRequest{Node: stub, Tuple: v.Tuple, Mode: opts.Mode, Scope: opts.Scope}}
			for _, id := range st.nodes {
				if q.Auditor.Audited(id) {
					ref.touched = append(ref.touched, id)
				}
			}
			st.explains = append(st.explains, ref)
			break
		}
	}
	if len(st.explains) == 0 {
		return fmt.Errorf("query-wire: no stub has a disappeared advRoute at seed %d", st.res.Net.Cfg.Seed)
	}
	return nil
}

// front is a frontend over its own audit cache directory.
type front struct {
	srv   *queryfront.Server
	cache *core.AuditCache
	dir   string // the cache's
}

func (r *run) startFront(st *wireState) (*front, error) {
	dir := r.freshDir("auditcache")
	cache, err := core.OpenAuditCache(dir, st.base.Suite)
	if err != nil {
		return nil, err
	}
	base := st.base
	base.AuditCache = cache
	srv, err := queryfront.Serve(queryfront.Config{
		Cluster: st.cluster, Base: base, Dir: st.res.Net.Dir,
		Factory: bgp.Factory(), ConfigureQuerier: bgpValidator,
		Sessions: r.cfg.sz.clients, QueryTimeout: time.Minute,
	}, "127.0.0.1:0")
	if err != nil {
		cache.Close()
		return nil, err
	}
	return &front{srv: srv, cache: cache, dir: dir}, nil
}

func (f *front) close() {
	f.srv.Close()
	f.cache.Close()
}

// checkHonest is the correctness check of every audit of the honest
// deployment: any provable evidence or unreachable lead is a wrong answer.
func checkHonest(res *queryfront.AuditResult, err error) error {
	switch {
	case err != nil:
		return err
	case len(res.Failures) > 0 || len(res.RedHosts) > 0:
		return fmt.Errorf("honest deployment accused: failures=%v red=%v", res.Failures, res.RedHosts)
	case len(res.Unreachable) > 0:
		return fmt.Errorf("unreachable leads on a healthy deployment: %v", res.Unreachable)
	}
	return nil
}

// coldAudit is one cold whole-deployment audit through a fresh frontend
// over a fresh cache.
func (r *run) coldAudit(st *wireState) (lap, error) {
	f, err := r.startFront(st)
	if err != nil {
		return lap{}, err
	}
	defer f.close()
	cl, err := queryfront.Dial(f.srv.Addr())
	if err != nil {
		return lap{}, err
	}
	defer cl.Close()
	coldState()
	var res *queryfront.AuditResult
	took := r.host.time(func() { res, err = cl.Audit() })
	if err := checkHonest(res, err); err != nil {
		return lap{}, err
	}
	if f.cache.Hits() != 0 || int(f.cache.Misses()) != len(st.nodes) {
		return lap{}, fmt.Errorf("cold audit saw %d cache hits, %d misses", f.cache.Hits(), f.cache.Misses())
	}
	return took, nil
}

// isExplain says whether the i-th query of a pass is an Explain; the rest
// audit the nodes round robin.
func isExplain(i int) bool { return i%10 == 9 }

func (st *wireState) explainFor(i int) explainRef { return st.explains[i/10%len(st.explains)] }

// passQueries is the length of one steady pass: every Explain query once,
// with the nine audits before each. Every pass is the same work.
func (st *wireState) passQueries() int { return 10 * len(st.explains) }

func auditTarget(nodes []types.NodeID, i int) types.NodeID { return nodes[(i-i/10)%len(nodes)] }

// passStats is what one steady pass measured.
type passStats struct {
	lap                  lap
	audits, explains     []float64 // client-observed latency of the queries that succeeded, ms
	overheads            []float64 // audit latency minus the server's Elapsed, ms
	errs                 []error   // one per query, nil when it succeeded
	hitsDelta, missDelta uint64
}

// steadyPass is one closed-loop pass over a warm frontend: each client owns
// one connection and sends its next query when the previous one returns.
// The pass runs in blocks of ten queries per client; the clients meet at
// the end of a block, where the host's speed is probed.
func (r *run) steadyPass(st *wireState, f *front) (passStats, error) {
	n := st.passQueries()
	lat := make([]float64, n)
	over := make([]float64, n)
	errs := make([]error, n)
	clients := make([]*queryfront.Client, r.cfg.sz.clients)
	for c := range clients {
		cl, err := queryfront.Dial(f.srv.Addr())
		if err != nil {
			return passStats{}, err
		}
		defer cl.Close()
		clients[c] = cl
	}
	h0, m0 := f.cache.Hits(), f.cache.Misses()
	// ask sends query i and checks its answer.
	ask := func(cl *queryfront.Client, i int) {
		q0 := time.Now()
		var served time.Duration
		if isExplain(i) {
			ref := st.explainFor(i)
			res, err := cl.Explain(ref.req)
			if err == nil && res.Vertices != ref.vertices {
				err = fmt.Errorf("explain returned %d vertices, in-process answer has %d", res.Vertices, ref.vertices)
			}
			if err == nil {
				served = res.Elapsed
			}
			errs[i] = err
		} else {
			res, err := cl.Audit(auditTarget(st.nodes, i))
			if errs[i] = checkHonest(res, err); errs[i] == nil {
				served = res.Elapsed
			}
		}
		d := time.Since(q0)
		lat[i] = float64(d) / 1e6
		over[i] = float64(d-served) / 1e6
	}
	sw := &stopwatch{h: r.host}
	for at := 0; at < n; at += 10 * len(clients) {
		end := min(at+10*len(clients), n)
		var next atomic.Int64
		next.Store(int64(at))
		var wg sync.WaitGroup
		sw.resume()
		for _, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < end; i = int(next.Add(1)) - 1 {
					ask(cl, i)
				}
			}()
		}
		wg.Wait()
		sw.pause()
	}
	ps := passStats{lap: sw.lap, errs: errs,
		hitsDelta: f.cache.Hits() - h0, missDelta: f.cache.Misses() - m0}
	for i := range lat {
		switch {
		case errs[i] != nil:
		case isExplain(i):
			ps.explains = append(ps.explains, lat[i])
		default:
			ps.audits = append(ps.audits, lat[i])
			ps.overheads = append(ps.overheads, over[i])
		}
	}
	return ps, nil
}

func queryWire(r *run) error {
	st, down, err := setUp(r, r.buildWire)
	if err != nil {
		return err
	}
	defer down()
	for _, ref := range st.explains {
		fmt.Printf("query-wire: explain %s on %s: %d vertices, audits %v\n", ref.req.Tuple, ref.req.Node, ref.vertices, ref.touched)
	}

	for i, n := 0, r.coldAudits(false); i < n; i++ {
		took, auditErr := r.coldAudit(st)
		if r.res.op(auditErr) {
			r.res.add("cold_audit_s", took.raw)
			r.res.add("cold_s", took.norm)
		}
	}

	// Steady phase: one long-lived frontend whose audit cache and verify
	// cache stay warm, as a real frontend's would.
	f, err := r.startFront(st)
	if err != nil {
		return err
	}
	defer f.close()
	warm, err := queryfront.Dial(f.srv.Addr())
	if err != nil {
		return err
	}
	defer warm.Close()
	coldState()
	if err := checkHonest(warm.Audit()); err != nil {
		return fmt.Errorf("query-wire: warm-up audit: %w", err)
	}
	for _, ref := range st.explains {
		if _, err := warm.Explain(ref.req); err != nil {
			return fmt.Errorf("query-wire: warm-up explain: %w", err)
		}
	}
	if err := f.cache.Sync(); err != nil {
		return err
	}
	before := readRuntimeCounters()
	var passes []passStats
	var audits []float64 // of every pass: one pass is too few samples for a p95
	lo, hi, box := r.repeats(false)
	r.timedPhase(lo, hi, box, func(int) {
		ps, err := r.steadyPass(st, f)
		if err != nil {
			r.res.fail("query-wire: %v", err)
			return
		}
		passes = append(passes, ps)
		for _, err := range ps.errs {
			r.res.op(err)
		}
		if ps.missDelta != 0 {
			r.res.fail("query-wire: steady pass missed the audit cache %d times", ps.missDelta)
		}
		r.res.add("audit_p50_ms", percentile(ps.audits, 50))
		r.res.add("explain_p50_ms", percentile(ps.explains, 50))
		audits = append(audits, ps.audits...)
		r.res.add("queries_per_s", float64(st.passQueries())/ps.lap.raw)
		r.res.add("ops_per_s", float64(st.passQueries())/ps.lap.norm)
	})
	// The tail is the 95th percentile when the passes gave it ten samples
	// beyond it (200 audits), else the highest percentile that has them;
	// with too few audits for any (smoke sizes), the slowest.
	tail := min(highestPercentile(len(audits)), 95)
	if tail == 0 {
		tail = 100
	}
	r.res.add("audit_p95_ms", percentile(audits, tail))
	if stats, err := warm.Stats(); err != nil {
		r.res.fail("query-wire: stats: %v", err)
	} else if stats.Shed+stats.Expired+stats.Failed != 0 {
		r.res.fail("query-wire: frontend shed=%d expired=%d failed=%d", stats.Shed, stats.Expired, stats.Failed)
	}
	if r.cfg.trace {
		return wireLayers(r, st, f, warm, passes, before)
	}
	return nil
}

// ---------------------------------------------------------------------------
// evidence: time from starting an investigation to provable evidence.

// armed is one Quagga deployment with one Byzantine behaviour armed on one
// node.
type armed struct {
	behaviour   string
	compromised []types.NodeID
	res         *eval.RunResult
	entries     uint64
	run         series // the run's exact counts, before any audit added to them

	// What the last untraced audit concluded.
	detected bool
	accused  []types.NodeID // honest nodes
}

var evidenceBehaviours = []string{"tamper-log", "equivocate", "suppress"}

func (r *run) buildEvidence(sw *stopwatch) ([]armed, func(), error) {
	var deps []armed
	for _, name := range evidenceBehaviours {
		compromised, err := eval.CompromisedFor(eval.Quagga, name, 1)
		if err != nil {
			return nil, nil, err
		}
		profile, ok := adversary.ProfileByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("evidence: no behaviour %q", name)
		}
		plan := adversary.Plan{compromised[0]: {profile.New()}}
		coldState() // the deployments share a seed, and so most signatures
		res, err := eval.Run(eval.Quagga, eval.Options{Scale: r.cfg.sz.evidScale, Seed: r.cfg.seed, OnNode: plan.Hook()})
		if err != nil {
			return nil, nil, fmt.Errorf("evidence: run under %s: %w", name, err)
		}
		sw.mark()
		deps = append(deps, armed{behaviour: name, compromised: compromised, res: res, entries: res.Net.LogStats().Entries,
			run: series{Fig5: eval.Figure5(res), Crypto: res.Net.CryptoStats()}})
	}
	return deps, func() {}, nil
}

// verdictKey is what two audits of one deployment must agree on.
func verdictKey(failures int, red []types.NodeID, unreachable int) string {
	return fmt.Sprintf("failures=%d red=%v unreachable=%d", failures, red, unreachable)
}

// check is the evidence workload's correctness check of the last audit: the
// armed node is exposed and no honest node is accused.
func (d *armed) check(v *adversary.Verdict) error {
	if !d.detected {
		return fmt.Errorf("evidence: %s on %v not detected (%s)", d.behaviour, d.compromised, v)
	}
	if len(d.accused) > 0 {
		return fmt.Errorf("evidence: %s: honest nodes accused: %v", d.behaviour, d.accused)
	}
	return nil
}

func evidence(r *run) error {
	deps, down, err := setUp(r, r.buildEvidence)
	if err != nil {
		return err
	}
	defer down()

	var entries uint64
	for _, d := range deps {
		entries += d.entries
	}
	verdicts := make([]string, len(deps))
	var sweeps []float64
	lo, hi, box := r.repeats(false)
	before := readRuntimeCounters()
	r.timedPhase(lo, hi, box, func(int) {
		var total lap
		for i := range deps {
			d := &deps[i]
			q := d.res.NewQuerier()
			coldState()
			var v *adversary.Verdict
			total = total.plus(r.host.time(func() { v = adversary.AuditAll(q, d.res.Net.Maintainer) }))
			d.detected, d.accused = v.Detected(d.compromised), v.FalselyAccused(d.compromised)
			r.res.op(d.check(v))
			key := verdictKey(len(v.Failures), v.RedHosts, len(v.Unresponsive))
			if verdicts[i] != "" && verdicts[i] != key {
				r.res.fail("determinism: %s verdict changed between sweeps: %s vs %s", d.behaviour, key, verdicts[i])
			}
			verdicts[i] = key
		}
		sweeps = append(sweeps, total.raw/float64(len(deps)))
		r.res.add("evidence_s", total.raw/float64(len(deps)))
		r.res.add("cold_s", total.norm/float64(len(deps)))
		r.res.add("ops_per_s", float64(entries)/total.norm)
	})
	if r.cfg.trace {
		return evidenceLayers(r, deps, verdicts, sweeps, before)
	}
	return nil
}
