package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/apps/bgp"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dlog"
	"repro/internal/eval"
	"repro/internal/provgraph"
	"repro/internal/queryfront"
	"repro/internal/seclog"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// This file is the traced run: per-layer probes that time calls into each
// layer's public functions from outside, and the audit path driven by the
// benchmark itself with a span around every layer boundary.

// timeN returns the median wall time of n calls of fn, in seconds.
func timeN(n int, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = time.Since(t0).Seconds()
	}
	return median(xs)
}

// probeCrypto times the suite's primitives on authenticator-sized payloads
// (a timestamp and a hash), bypassing the verify cache. Each is timed in five
// batches and the median batch reported, so that one slow moment of a shared
// host does not become the layer's cost.
func probeCrypto(res *result) error {
	key, err := cryptoutil.PooledKey(suite, 999)
	if err != nil {
		return err
	}
	pub := key.Public()
	const batch = 200
	msgs := make([][]byte, batch)
	sigs := make([][]byte, batch)
	for i := range msgs {
		msgs[i] = append(suite.Hash([]byte{byte(i)}), 0, 0, 0, 0, 0, 0, 0, byte(i))
	}
	var bad error
	res.add("cryptoutil.sign_us", timeN(5, func() {
		for i := range msgs {
			if sigs[i], err = key.Sign(msgs[i]); err != nil {
				bad = err
			}
		}
	})/batch*1e6)
	res.add("cryptoutil.verify_us", timeN(5, func() {
		for i := range msgs {
			if !pub.Verify(msgs[i], sigs[i]) {
				bad = fmt.Errorf("probe: signature %d does not verify", i)
			}
		}
	})/batch*1e6)
	buf := make([]byte, 1024)
	res.add("cryptoutil.hash_mb_per_s", batch*1024/1e6/timeN(5, func() {
		for i := 0; i < batch; i++ {
			buf[0] = byte(i)
			suite.Hash(buf)
		}
	}))
	return bad
}

// probeCounts turns a run's exact crypto counters into per-message ratios.
func probeCounts(res *result, s series) {
	msgs := float64(s.Fig5.Messages)
	res.add("core.signs_per_msg", float64(s.Crypto.Signs)/msgs)
	res.add("core.verifies_per_msg", float64(s.Crypto.Verifies)/msgs)
	if s.Crypto.Verifies > 0 {
		res.add("cryptoutil.verify_cache_hit_ratio", float64(s.Crypto.VerifyCacheHits)/float64(s.Crypto.Verifies))
	}
}

// busiest returns the node with the longest log.
func busiest(net *simnet.Net) *core.Node {
	var best *core.Node
	for _, id := range net.Nodes() {
		if n := net.Node(id); best == nil || n.Log.Len() > best.Log.Len() {
			best = n
		}
	}
	return best
}

// logProbe holds what probeLog measured that the node-path shares need.
type logProbe struct {
	appendMemUS, appendStoreUS, stepUS float64
	steps, entries                     int
}

// probeLog replays the busiest node's log through the layers under the
// node and audit paths, one at a time: the wire codec, seclog in memory and
// store-backed (append, sync, open, cold segment read, chain verification)
// and the dlog machine.
func probeLog(r *run, net *simnet.Net) (logProbe, error) {
	var lp logProbe
	node := busiest(net)
	lg := node.Log
	seg, err := lg.Segment(lg.FirstSeq(), lg.Len())
	if err != nil {
		return lp, err
	}
	lp.entries = len(seg.Entries)

	// wire: the segment crosses the wire whole on every audit.
	var enc []byte
	secs := timeN(5, func() { enc = wire.Encode(seg) })
	mb := float64(len(enc)) / 1e6
	r.res.add("wire.segment_encode_mb_per_s", mb/secs)
	var derr error
	secs = timeN(5, func() {
		var back seclog.SegmentData
		derr = wire.Decode(enc, &back)
	})
	if derr != nil {
		return lp, derr
	}
	r.res.add("wire.segment_decode_mb_per_s", mb/secs)

	// seclog in memory.
	key, err := cryptoutil.PooledKey(suite, 998)
	if err != nil {
		return lp, err
	}
	replay := func(into *seclog.Log) float64 {
		t0 := time.Now()
		for _, e := range seg.Entries {
			into.Append(e)
		}
		return time.Since(t0).Seconds() / float64(len(seg.Entries)) * 1e6
	}
	lp.appendMemUS = median([]float64{
		replay(seclog.New(node.ID, suite, key, nil)),
		replay(seclog.New(node.ID, suite, key, nil)),
		replay(seclog.New(node.ID, suite, key, nil))})
	r.res.add("seclog.append_mem_us", lp.appendMemUS)

	// seclog store-backed, default hot tail.
	dir := r.freshDir("probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return lp, err
	}
	stored, err := seclog.NewStored(dir, node.ID, suite, key, nil, eval.DefaultHotTail)
	if err != nil {
		return lp, err
	}
	lp.appendStoreUS = replay(stored)
	r.res.add("seclog.append_store_us", lp.appendStoreUS)
	t0 := time.Now()
	err = stored.Sync()
	r.res.add("seclog.sync_ms", time.Since(t0).Seconds()*1e3)
	if err == nil {
		err = stored.Close()
	}
	if err != nil {
		return lp, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return lp, err
	}
	t0 = time.Now()
	reopened, err := seclog.Open(dir, node.ID, suite, key, nil, eval.DefaultHotTail)
	if err != nil {
		return lp, err
	}
	defer reopened.Close()
	r.res.add("seclog.open_mb_per_s", float64(disk)/1e6/time.Since(t0).Seconds())
	var cold *seclog.SegmentData
	var rerr error
	secs = timeN(3, func() { cold, rerr = reopened.Segment(reopened.FirstSeq(), reopened.Len()) })
	if rerr != nil {
		return lp, rerr
	}
	r.res.add("seclog.segment_read_mb_per_s", mb/secs)
	auth, err := reopened.Authenticator()
	if err != nil {
		return lp, err
	}
	var verr error
	secs = timeN(3, func() { _, verr = cold.VerifyAgainst(suite, nil, key.Public(), auth) })
	if verr != nil {
		return lp, verr
	}
	r.res.add("seclog.verify_mb_per_s", mb/secs)

	// dlog: the logged inputs, as recovery and replica replay feed them.
	var evs []types.Event
	for _, e := range seg.Entries {
		switch e.Type {
		case seclog.EIns:
			evs = append(evs, types.Event{Kind: types.EvIns, Node: node.ID, Time: e.T,
				Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody, Replaces: e.Replaces})
		case seclog.EDel:
			evs = append(evs, types.Event{Kind: types.EvDel, Node: node.ID, Time: e.T,
				Tuple: e.Tuple, MaybeRule: e.MaybeRule, MaybeBody: e.MaybeBody})
		case seclog.ERcv:
			for j := range e.Msgs {
				evs = append(evs, types.Event{Kind: types.EvRcv, Node: node.ID, Time: e.T, Msg: &e.Msgs[j], SameBatch: j > 0})
			}
		}
	}
	lp.steps = len(evs)
	if len(evs) > 0 {
		lp.stepUS = timeN(3, func() {
			m := dlog.NewMachine(bgp.Program(), node.ID)
			for _, ev := range evs {
				m.Step(ev)
			}
		}) / float64(len(evs)) * 1e6
	}
	r.res.add("dlog.step_us", lp.stepUS)
	return lp, nil
}

// probeRetrieve times the retrieve primitive called directly on the node.
func probeRetrieve(res *result, node *core.Node) error {
	auth, err := node.LatestAuth()
	if err != nil {
		return err
	}
	var rerr error
	secs := timeN(5, func() { _, rerr = node.HandleRetrieve(core.RetrieveRequest{Auth: auth}) })
	res.add("core.handle_retrieve_ms", secs*1e3)
	return rerr
}

// timeOpens returns the total time seclog.Open takes on the closed stores of
// ids under dir.
func timeOpens(dir string, ids []types.NodeID) (float64, error) {
	var total float64
	for _, id := range ids {
		t0 := time.Now()
		lg, err := seclog.Open(dir, id, suite, nil, nil, eval.DefaultHotTail)
		if err != nil {
			return 0, err
		}
		total += time.Since(t0).Seconds()
		if err := lg.Close(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// nodeLayers is the traced run of the node workloads. The run itself is one
// opaque span, so a layer's share is its probed per-operation time times the
// run's exact operation count over the run's wall time; what the shares do
// not reach is node.unexplained_share.
func nodeLayers(r *run, store bool, last *nodeRep, walls []float64, before runtimeCounters) error {
	res, s := r.res, last.series
	msgs := float64(s.Fig5.Messages)
	allocMiB, gcShare := before.since()
	res.add("runtime.alloc_mb_per_msg", allocMiB/(msgs*float64(len(walls))))
	res.add("runtime.gc_cpu_share", gcShare)
	res.add("simnet.traffic_factor", s.Fig5.Factor)
	res.add("seclog.log_bytes_per_msg", float64(s.Logs.GrossBytes)/msgs)
	probeCounts(res, s)
	if err := probeCrypto(res); err != nil {
		return err
	}

	net := last.net
	if store {
		disk, err := dirBytes(last.dir)
		if err != nil {
			return err
		}
		res.add("seclog.tables", float64(last.tables))
		res.add("seclog.disk_bytes", float64(disk))
		res.add("seclog.disk_bytes_per_log_byte", float64(disk)/float64(s.Logs.GrossBytes))
		// Recovery minus the Open calls it contains is the machine rebuild.
		opens, err := timeOpens(last.dir, net.Nodes())
		if err != nil {
			return err
		}
		recovered, took, err := r.restart(last.dir, last.dur)
		if err != nil {
			return err
		}
		defer recovered.CloseLogs()
		res.add("core.recover_node_ms", math.Max(took.raw-opens, 0)*1e3/float64(len(net.Nodes())))
		net = recovered
	}
	if err := probeRetrieve(res, busiest(net)); err != nil {
		return err
	}
	lp, err := probeLog(r, net)
	if err != nil {
		return err
	}

	// Shares of the run's wall time, from per-operation time × exact count.
	wall := median(walls)
	appendUS := lp.appendMemUS
	if store {
		appendUS = lp.appendStoreUS
	}
	stepsPerEntry := float64(lp.steps) / float64(lp.entries)
	explained := (float64(s.Crypto.Signs)*res.median("cryptoutil.sign_us") +
		float64(s.Crypto.Verifies-s.Crypto.VerifyCacheHits)*res.median("cryptoutil.verify_us") +
		float64(s.Logs.Entries)*appendUS +
		float64(s.Logs.Entries)*stepsPerEntry*lp.stepUS) / 1e6
	res.add("node.unexplained_share", 1-explained/wall)

	// The traced and untraced node runs are the same call; their difference
	// is the noise floor of trace.overhead_pct.
	ref, err := r.quaggaRun(r.cfg.sz.nodeScale, store, 0)
	if err != nil {
		return err
	}
	res.add("trace.overhead_pct", (wall-ref.lap.raw)/ref.lap.raw*100)
	if err := r.writeTrace(); err != nil {
		return err
	}
	if !store {
		sharded, err := r.quaggaRun(r.cfg.sz.nodeScale, false, runtime.NumCPU())
		if err != nil {
			return err
		}
		if sharded.series != s {
			res.fail("determinism: sharded driver series differ from the serial driver's")
		}
		res.add("simnet.sharded_over_serial", wall/sharded.lap.raw)
	}
	return nil
}

// ---------------------------------------------------------------------------
// The driven audit path.

// qtrace is the span stack of one query, driven from one goroutine.
type qtrace struct {
	tr    *tracer
	query int
	stack []int
}

func (q *qtrace) in(name string) {
	parent := -1
	if len(q.stack) > 0 {
		parent = q.stack[len(q.stack)-1]
	}
	q.stack = append(q.stack, q.tr.begin(name, parent, q.query))
}

func (q *qtrace) out() {
	q.tr.end(q.stack[len(q.stack)-1])
	q.stack = q.stack[:len(q.stack)-1]
}

// tracedFetcher records a span around every fetch, under whichever span its
// query is in; core.Querier's own fetches (inside Explain) show up too.
type tracedFetcher struct {
	core.Fetcher
	q *qtrace
}

func (f tracedFetcher) LatestAuth(node types.NodeID) (seclog.Authenticator, error) {
	f.q.in("transport.latest_auth")
	defer f.q.out()
	return f.Fetcher.LatestAuth(node)
}

func (f tracedFetcher) Retrieve(node types.NodeID, req core.RetrieveRequest) (*core.RetrieveResponse, error) {
	f.q.in("transport.retrieve")
	defer f.q.out()
	return f.Fetcher.Retrieve(node, req)
}

func (f tracedFetcher) AuthsAbout(observer, target types.NodeID, t1, t2 types.Time) []seclog.Authenticator {
	f.q.in("transport.auths_about")
	defer f.q.out()
	return f.Fetcher.AuthsAbout(observer, target, t1, t2)
}

// auditEnv is what a driven audit runs against.
type auditEnv struct {
	fetch core.Fetcher
	base  core.Config
	dir   *core.Directory
	// maint is the deployment's maintainer when the audit runs in its
	// process; nil when notes must be fetched (syncNotes non-nil).
	maint     *core.Maintainer
	syncNotes func(*core.Maintainer)
}

// auditOutcome is what a driven audit concluded, in the terms the untraced
// paths report.
type auditOutcome struct {
	failures    int
	red         []types.NodeID
	unreachable int
	graph       int // vertices in the reconstructed graph
	vertices    int // explanation size, when an Explain ran
	wall        float64
}

// drivenAudit audits targets (the whole membership when nil) through public
// calls, in the order queryfront.Server.run and adversary.AuditAll use, with
// a span around each step. A non-nil ex is answered once the targets are
// audited.
func drivenAudit(tr *tracer, query int, env auditEnv, targets []types.NodeID, ex *queryfront.ExplainRequest) (auditOutcome, error) {
	qt := &qtrace{tr: tr, query: query}
	fetch := tracedFetcher{env.fetch, qt}
	t0 := time.Now()
	qt.in("query")
	maint := env.maint
	if maint == nil {
		maint = core.NewMaintainer()
		qt.in("transport.notes_sync")
		env.syncNotes(maint)
		qt.out()
	}
	a := core.NewAuditor(env.base, env.dir, bgp.Factory(), maint)
	a.Builder.MaybeValidator = bgp.ValidateExport
	all := fetch.Nodes()
	if targets == nil {
		targets = all
	}
	down := map[types.NodeID]bool{}
	for _, id := range targets {
		auth, err := fetch.LatestAuth(id)
		if err != nil {
			down[id] = true
			continue
		}
		resp, err := fetch.Retrieve(id, core.RetrieveRequest{Auth: auth})
		if err != nil {
			down[id] = true
			continue
		}
		qt.in("core.prepare")
		p := a.Prepare(id, resp, auth)
		qt.out()
		qt.in("provgraph.commit")
		_ = a.Commit(p) // a provably bad log is a recorded failure, not an error here
		qt.out()
	}
	qt.in("core.finalize")
	a.Finalize()
	qt.out()
	var out auditOutcome
	var err error
	if ex == nil {
		qt.in("core.consistency")
		for _, target := range targets {
			for _, peer := range all {
				if peer == target || down[peer] {
					continue
				}
				for _, auth := range fetch.AuthsAbout(peer, target, 0, types.Time(math.MaxInt64)) {
					a.CheckAuthenticator(auth)
				}
			}
		}
		qt.out()
	} else {
		qt.in("core.explain")
		q := core.NewQuerier(a, fetch)
		q.Parallelism = 1
		var expl *core.Explanation
		if expl, err = q.Explain(ex.Node, ex.Tuple, ex.Opts()); err == nil {
			a.Finalize()
			out.vertices = expl.Size()
			out.unreachable = len(q.Unreachable())
		}
		qt.out()
	}
	qt.out()
	out.wall = time.Since(t0).Seconds()
	out.failures = len(a.Failures())
	out.red = a.Graph().HostsWithColor(provgraph.Red)
	out.unreachable += len(down)
	out.graph = a.Graph().Len()
	return out, err
}

func (o auditOutcome) honest() error {
	if o.failures > 0 || len(o.red) > 0 || o.unreachable > 0 {
		return fmt.Errorf("driven audit of the honest deployment: failures=%d red=%v unreachable=%d", o.failures, o.red, o.unreachable)
	}
	return nil
}

// addSpans reports, for each named span, the median over the kept queries
// of the time the query spent in it. The sweep and the Explain are reported
// with the fetches they make; every other span as self time.
func addSpans(res *result, spans []span, keep func(query int) bool, metricOf map[string]string) {
	self := selfTimes(spans)
	for name, metric := range metricOf {
		total := name == "core.consistency" || name == "core.explain"
		if xs := perQuery(spans, self, name, total, keep); len(xs) > 0 {
			res.add(metric, median(xs))
		}
	}
}

// spanMetrics maps the spans every driven audit records, and any more, to
// the layer metric of the same name; core.prepare goes to prepare, which
// says whether the audit cache was cold or warm.
func spanMetrics(prepare string, more ...string) map[string]string {
	m := map[string]string{"core.prepare": prepare}
	for _, name := range append(more, "transport.latest_auth", "transport.retrieve", "transport.auths_about",
		"provgraph.commit", "core.finalize", "core.consistency") {
		m[name] = name + "_ms"
	}
	return m
}

// coldQuery offsets the query ids of query-wire's traced cold audits, so
// that one trace file holds both phases.
const coldQuery = 1_000_000

func isCold(query int) bool   { return query >= coldQuery }
func isSteady(query int) bool { return query < coldQuery }

// writeTrace stores the workload's spans and says where.
func (r *run) writeTrace() error {
	if err := os.MkdirAll(r.cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/trace-%s.json", r.cfg.traceDir, r.res.Workload)
	if err := r.tr.write(path); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(r.tr.spans), path)
	return nil
}

// wireLayers is the traced run of query-wire: the same cold and steady
// phases, driven by the benchmark through RemoteFetchers over the shared
// audit cache instead of through the frontend.
func wireLayers(r *run, st *wireState, f *front, cl *queryfront.Client, passes []passStats, before runtimeCounters) error {
	res := r.res
	var audits, overheads []float64
	var hits, misses uint64
	for _, ps := range passes {
		audits = append(audits, ps.audits...)
		overheads = append(overheads, ps.overheads...)
		hits, misses = hits+ps.hitsDelta, misses+ps.missDelta
	}
	allocMiB, gcShare := before.since()
	res.add("runtime.alloc_mb_per_query", allocMiB/float64(len(passes)*st.passQueries()))
	res.add("runtime.gc_cpu_share", gcShare)
	res.add("queryfront.audit_p50_ms", res.median("audit_p50_ms"))
	res.add("queryfront.audit_p95_ms", res.median("audit_p95_ms"))
	res.add("queryfront.explain_p50_ms", res.median("explain_p50_ms"))
	res.add("queryfront.overhead_ms", median(overheads))
	stats, err := cl.Stats()
	if err != nil {
		return err
	}
	res.add("queryfront.shed", float64(stats.Shed))
	res.add("queryfront.expired", float64(stats.Expired))
	res.add("queryfront.failed", float64(stats.Failed))
	res.add("core.auditcache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	if err := f.cache.Sync(); err != nil {
		return err
	}
	cacheBytes, err := dirBytes(f.dir)
	if err != nil {
		return err
	}
	res.add("core.auditcache_disk_mb", float64(cacheBytes)/(1<<20))

	probeCounts(res, st.run)
	if err := probeCrypto(res); err != nil {
		return err
	}
	if _, err := probeLog(r, st.res.Net); err != nil {
		return err
	}
	big := busiest(st.res.Net)
	if err := probeRetrieve(res, big); err != nil {
		return err
	}

	// transport: a round trip against the same call made directly, and the
	// largest segment over the wire.
	fetch := st.cluster.NewFetcher("bench-probe")
	defer fetch.Close()
	var perr error
	direct := timeN(200, func() { _, perr = big.LatestAuth() })
	remote := timeN(200, func() { _, perr = fetch.LatestAuth(big.ID) })
	if perr != nil {
		return perr
	}
	res.add("transport.rpc_rtt_us", (remote-direct)*1e6)
	auth, err := fetch.LatestAuth(big.ID)
	if err != nil {
		return err
	}
	var resp *core.RetrieveResponse
	secs := timeN(5, func() { resp, perr = fetch.Retrieve(big.ID, core.RetrieveRequest{Auth: auth}) })
	if perr != nil {
		return perr
	}
	res.add("transport.retrieve_mb_per_s", float64(resp.Segment.WireSize())/1e6/secs)

	env := func(fetch *transport.RemoteFetcher, cache *core.AuditCache) auditEnv {
		base := st.base
		base.AuditCache = cache
		return auditEnv{fetch: fetch, base: base, dir: st.res.Net.Dir, syncNotes: func(m *core.Maintainer) {
			for _, id := range fetch.Nodes() {
				if notes, err := fetch.Notes(id); err == nil {
					for _, n := range notes {
						m.NotifyMissingAck(n.Reporter, n.ID)
					}
				}
			}
		}}
	}

	// Cold phase, traced: fresh cache, fresh fetcher, cold verify cache.
	var coldWalls []float64
	coldAudit := func(i int) {
		dir := r.freshDir("auditcache")
		cache, err := core.OpenAuditCache(dir, st.base.Suite)
		if err != nil {
			res.fail("query-wire: %v", err)
			return
		}
		defer cache.Close()
		fetch := st.cluster.NewFetcher(types.NodeID(fmt.Sprintf("bench-cold-%d", i)))
		defer fetch.Close()
		coldState()
		out, err := drivenAudit(r.tr, coldQuery+i, env(fetch, cache), nil, nil)
		if err == nil {
			err = out.honest()
		}
		if res.op(err) {
			coldWalls = append(coldWalls, out.wall)
			res.add("provgraph.vertices", float64(out.graph))
		}
	}
	for i, n := 0, r.coldAudits(true); i < n; i++ {
		coldAudit(i)
	}

	// Steady phase, traced: the same query mix from the same number of
	// concurrent sessions, each with its own fetcher, over the warm cache.
	n := st.passQueries()
	outs := make([]auditOutcome, n)
	errs := make([]error, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	done := make(chan struct{})
	for c := 0; c < r.cfg.sz.clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			fetch := st.cluster.NewFetcher(types.NodeID(fmt.Sprintf("bench-%d", c)))
			defer fetch.Close()
			for i := range next {
				if isExplain(i) {
					ref := st.explainFor(i)
					outs[i], errs[i] = drivenAudit(r.tr, i, env(fetch, f.cache), ref.touched, &ref.req)
					if errs[i] == nil && outs[i].vertices != ref.vertices {
						errs[i] = fmt.Errorf("driven explain returned %d vertices, in-process answer has %d", outs[i].vertices, ref.vertices)
					}
				} else {
					outs[i], errs[i] = drivenAudit(r.tr, i, env(fetch, f.cache), []types.NodeID{auditTarget(st.nodes, i)}, nil)
				}
				if errs[i] == nil {
					errs[i] = outs[i].honest()
				}
			}
		}()
	}
	for c := 0; c < r.cfg.sz.clients; c++ {
		<-done
	}
	var tracedAudits []float64
	for i := range outs {
		if res.op(errs[i]) && !isExplain(i) {
			tracedAudits = append(tracedAudits, outs[i].wall*1e3)
		}
	}
	addSpans(res, r.tr.spans, isCold, map[string]string{"core.prepare": "core.prepare_cold_ms"})
	addSpans(res, r.tr.spans, isSteady, spanMetrics("core.prepare_warm_ms", "transport.notes_sync", "core.explain"))
	ts := st.cluster.Stats()
	res.add("transport.errors", float64(ts.Dropped()+ts.DecodeErrors+ts.DialErrors))

	untraced, traced := median(audits), median(tracedAudits)
	res.add("trace.coverage", traced/untraced)
	res.add("trace.overhead_pct", (traced-untraced)/untraced*100)
	fmt.Printf("query-wire: cold audit traced %.3fs, untraced %.3fs\n", median(coldWalls), res.median("cold_audit_s"))
	return r.writeTrace()
}

// evidenceLayers is the traced run of the evidence workload: the same cold
// audits, driven against the simulated network itself, with no cache.
func evidenceLayers(r *run, deps []armed, verdicts []string, sweeps []float64, before runtimeCounters) error {
	res := r.res
	allocMiB, gcShare := before.since()
	res.add("runtime.alloc_mb_per_query", allocMiB/float64(len(sweeps)*len(deps)))
	res.add("runtime.gc_cpu_share", gcShare)
	probeCounts(res, deps[0].run)
	if err := probeCrypto(res); err != nil {
		return err
	}
	// The honest majority of the last deployment stands in for "a log".
	if _, err := probeLog(r, deps[len(deps)-1].res.Net); err != nil {
		return err
	}
	if err := probeRetrieve(res, busiest(deps[len(deps)-1].res.Net)); err != nil {
		return err
	}

	var traced []float64
	detected, accused := 0, 0
	lo, hi, box := r.repeats(true)
	timebox(lo, hi, box, func(s int) {
		var total float64
		for i, d := range deps {
			net := d.res.Net
			coldState()
			out, err := drivenAudit(r.tr, s*len(deps)+i, auditEnv{fetch: net, base: net.Cfg.Core, dir: net.Dir, maint: net.Maintainer}, nil, nil)
			if key := verdictKey(out.failures, out.red, out.unreachable); err == nil && key != verdicts[i] {
				err = fmt.Errorf("evidence: driven audit of %s concluded %s, AuditAll %s", d.behaviour, key, verdicts[i])
			}
			res.op(err)
			total += out.wall
			res.add("provgraph.vertices", float64(out.graph))
		}
		traced = append(traced, total/float64(len(deps)))
	})
	for _, d := range deps {
		if d.detected {
			detected++
		}
		accused += len(d.accused)
	}
	res.add("adversary.detected_share", float64(detected)/float64(len(deps)))
	res.add("adversary.false_accusations", float64(accused))
	addSpans(res, r.tr.spans, func(int) bool { return true }, spanMetrics("core.prepare_cold_ms"))
	untraced := median(sweeps)
	res.add("trace.coverage", median(traced)/untraced)
	res.add("trace.overhead_pct", (median(traced)-untraced)/untraced*100)
	return r.writeTrace()
}
