// Package eval implements the paper's evaluation (§7): the five application
// configurations (Quagga, Chord-Small/Large, Hadoop-Small/Large) and the
// harnesses that regenerate every figure — network traffic (Fig. 5), log
// growth (Fig. 6), CPU cost (Fig. 7), query performance (Fig. 8), and Chord
// scalability (Fig. 9) — plus the §5.6 batching ablation.
//
// Absolute numbers differ from the paper (different substrate, different
// hardware, scaled-down workloads); the harness exists to reproduce the
// *shape* of each result. Scale factors let callers trade fidelity for run
// time.
package eval

import (
	"fmt"
	"time"

	"repro/internal/apps/bgp"
	"repro/internal/apps/chord"
	"repro/internal/apps/mapreduce"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/provgraph"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// Scale shrinks the workloads uniformly: 1.0 is the paper-sized experiment
// (15 minutes, 15,000 updates, 50/250 Chord nodes); the default used by
// tests and benches is much smaller.
type Scale float64

// dur scales a duration with a floor.
func (s Scale) dur(d types.Time) types.Time {
	v := types.Time(float64(d) * float64(s))
	if v < 10*types.Second {
		v = 10 * types.Second
	}
	return v
}

func (s Scale) count(n int) int {
	v := int(float64(n) * float64(s))
	if v < 10 {
		v = 10
	}
	return v
}

// ConfigName identifies one of the five evaluation configurations (§7.1).
type ConfigName string

// The five configurations.
const (
	Quagga      ConfigName = "Quagga"
	ChordSmall  ConfigName = "Chord-Small"
	ChordLarge  ConfigName = "Chord-Large"
	HadoopSmall ConfigName = "Hadoop-Small"
	HadoopLarge ConfigName = "Hadoop-Large"
)

// AllConfigs lists the configurations in the paper's order.
var AllConfigs = []ConfigName{Quagga, ChordSmall, ChordLarge, HadoopSmall, HadoopLarge}

// RunResult captures everything a finished run exposes to the figure
// harnesses.
type RunResult struct {
	Config   ConfigName
	Net      *simnet.Net
	Workload *workload.Workload
	Duration types.Time
}

// NewQuerier builds a query session appropriate for the run's application.
func (r *RunResult) NewQuerier() *core.Querier { return r.Net.QuerierFor(r.Workload) }

// Options tweaks a run.
type Options struct {
	Scale  Scale
	Tbatch types.Time // 0 = no batching
	Seed   int64
	// LogDir, when set, backs every node's tamper-evident log with an
	// on-disk segment store rooted there (core.Config.LogDir). All
	// deterministic metric series are bit-identical to an in-memory run.
	LogDir string
	// LogHotTail bounds resident decoded log entries per node when LogDir
	// is set; zero keeps everything hot.
	LogHotTail int
	// SimWorkers bounds how many per-node event shards the simulation
	// driver executes concurrently (simnet.Config.Workers): 0 or 1 is the
	// serial reference scheduler, negative uses GOMAXPROCS. Every
	// deterministic metric series is bit-identical across worker counts.
	SimWorkers int
	// OnNode is invoked with every node the deployment creates
	// (simnet.Config.OnNode); the adversary scenario family uses it to
	// compromise nodes at deploy time. Nil for honest runs.
	OnNode func(*core.Node)
}

// DefaultHotTail is the LogHotTail of core.DefaultConfig, for store-backed
// runs that set Options.LogHotTail.
var DefaultHotTail = core.DefaultConfig().LogHotTail

func (o Options) normalize() Options {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) simCfg() simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Core.Tbatch = o.Tbatch
	cfg.Core.LogDir = o.LogDir
	cfg.Core.LogHotTail = o.LogHotTail
	cfg.Workers = o.SimWorkers
	cfg.OnNode = o.OnNode
	return cfg
}

// finishRun durably syncs store-backed logs (so healthy nodes' history is
// recoverable even when a peer faulted) and then surfaces node faults
// (signing failures, sticky store-write errors) as run errors — they used
// to panic, and must not pass silently. On error the stores are closed,
// since the caller gets no RunResult to close them through.
func finishRun(net *simnet.Net) error {
	err := net.SyncLogs()
	for _, id := range net.Nodes() {
		if nerr := net.Node(id).Err(); nerr != nil && err == nil {
			err = fmt.Errorf("eval: node %s faulted during the run: %w", id, nerr)
		}
	}
	if err != nil {
		_ = net.CloseLogs()
	}
	return err
}

// Run executes one configuration and returns its result.
func Run(name ConfigName, o Options) (*RunResult, error) {
	o = o.normalize()
	switch name {
	case Quagga:
		return run(name, o, quagga(o))
	case ChordSmall:
		return run(name, o, chordRing(o, 50))
	case ChordLarge:
		return run(name, o, chordRing(o, 250))
	case HadoopSmall, HadoopLarge:
		if o.Tbatch == 0 {
			// The paper's Hadoop instrumentation sends one message per
			// (map, reduce) pair; batching reproduces that envelope shape.
			o.Tbatch = 100 * types.Millisecond
		}
		if name == HadoopSmall {
			return run(name, o, hadoop(o, 20, 10, 8<<10))
		}
		return run(name, o, hadoop(o, 60, 10, 16<<10))
	default:
		return nil, fmt.Errorf("eval: unknown config %q", name)
	}
}

// run deploys w on a fresh simulated network and runs it to its horizon.
func run(name ConfigName, o Options, w *workload.Workload) (*RunResult, error) {
	net := simnet.New(o.simCfg())
	if err := net.Deploy(w); err != nil {
		return nil, err
	}
	net.Run(w.Horizon)
	if err := finishRun(net); err != nil {
		return nil, err
	}
	return &RunResult{Config: name, Net: net, Workload: w, Duration: w.Horizon}, nil
}

// quagga is the 10-network topology driven by a RouteViews-style trace from
// the stub networks (§7.1: ~15,000 updates over 15 minutes).
func quagga(o Options) *workload.Workload {
	dur := o.Scale.dur(15 * types.Minute)
	w, _ := bgp.New(bgp.DefaultTopology(), types.Second, dur, &bgp.Trace{
		Seed: o.Seed, Updates: o.Scale.count(15000), PrefixPool: 200,
		Start: types.Second, Span: dur - 5*types.Second,
	})
	return w
}

func chordRing(o Options, n int) *workload.Workload {
	p := chord.DefaultParams(n)
	p.Duration = o.Scale.dur(15 * types.Minute)
	p.Lookups = o.Scale.count(2 * n)
	return chord.New(p)
}

func hadoop(o Options, mappers, reducers, bytesPerSplit int) *workload.Workload {
	return mapreduce.New(mapreduce.Job{
		Mappers: mappers, Reducers: reducers, Splits: workload.Corpus(o.Seed, mappers, bytesPerSplit),
		StartAt: types.Second, ReduceAt: 30 * types.Second, Duration: 60 * types.Second,
	})
}

// ---------------------------------------------------------------------------
// Figure 5: network traffic, normalized to the baseline.

// Fig5Row is one bar of Figure 5.
type Fig5Row struct {
	Config          ConfigName
	BaselineBytes   int64
	ProvenanceBytes int64
	AuthBytes       int64
	AckBytes        int64
	Messages        int64
	Envelopes       int64
	// Factor is SNP traffic divided by baseline traffic.
	Factor float64
}

func (r Fig5Row) String() string {
	return fmt.Sprintf("%-13s baseline=%8dB prov=%8dB auth=%8dB ack=%8dB msgs=%7d factor=%.2fx",
		r.Config, r.BaselineBytes, r.ProvenanceBytes, r.AuthBytes, r.AckBytes, r.Messages, r.Factor)
}

// Figure5 measures one configuration's traffic breakdown.
func Figure5(res *RunResult) Fig5Row {
	t := res.Net.Traffic
	row := Fig5Row{
		Config:          res.Config,
		BaselineBytes:   t.BaselineBytes,
		ProvenanceBytes: t.ProvenanceBytes,
		AuthBytes:       t.AuthBytes,
		AckBytes:        t.AckBytes,
		Messages:        t.Messages,
		Envelopes:       t.Envelopes,
	}
	if t.BaselineBytes > 0 {
		row.Factor = float64(t.TotalBytes()) / float64(t.BaselineBytes)
	}
	return row
}

// ---------------------------------------------------------------------------
// Figure 6: per-node log growth.

// Fig6Row is one bar of Figure 6.
type Fig6Row struct {
	Config     ConfigName
	Nodes      int
	MBPerMin   float64 // per node, excluding checkpoints (as in the paper)
	CkptBytes  int64
	TotalBytes int64
	Entries    uint64
}

func (r Fig6Row) String() string {
	return fmt.Sprintf("%-13s nodes=%3d log=%.4f MB/min/node ckpt=%dB entries=%d",
		r.Config, r.Nodes, r.MBPerMin, r.CkptBytes, r.Entries)
}

// Figure6 measures per-node log growth.
func Figure6(res *RunResult) Fig6Row {
	s := res.Net.LogStats()
	row := Fig6Row{Config: res.Config, Nodes: s.Nodes,
		CkptBytes: s.CkptBytes, TotalBytes: s.GrossBytes, Entries: s.Entries}
	minutes := res.Duration.Seconds() / 60
	if s.Nodes > 0 && minutes > 0 {
		row.MBPerMin = float64(s.GrossBytes-s.CkptBytes) / (1 << 20) / float64(s.Nodes) / minutes
	}
	return row
}

// ---------------------------------------------------------------------------
// Figure 7: additional CPU load from crypto.

// CryptoCosts holds measured per-operation costs.
type CryptoCosts struct {
	Sign    time.Duration
	Verify  time.Duration
	HashKiB time.Duration // per KiB hashed
}

// MeasureCryptoCosts times the suite's operations (the §7.6 methodology:
// multiply operation counts by measured unit costs).
func MeasureCryptoCosts(suite cryptoutil.Suite) (CryptoCosts, error) {
	key, err := cryptoutil.PooledKey(suite, 999)
	if err != nil {
		return CryptoCosts{}, err
	}
	msg := make([]byte, 64)
	const iters = 20
	start := time.Now()
	var sig []byte
	for i := 0; i < iters; i++ {
		sig, _ = key.Sign(msg)
	}
	costs := CryptoCosts{Sign: time.Since(start) / iters}
	pub := key.Public()
	start = time.Now()
	for i := 0; i < iters; i++ {
		pub.Verify(msg, sig)
	}
	costs.Verify = time.Since(start) / iters
	buf := make([]byte, 1024)
	start = time.Now()
	for i := 0; i < 200; i++ {
		suite.Hash(buf)
	}
	costs.HashKiB = time.Since(start) / 200
	return costs, nil
}

// Fig7Row is one bar of Figure 7.
type Fig7Row struct {
	Config     ConfigName
	Signs      uint64
	Verifies   uint64
	Hashes     uint64
	HashedKiB  uint64
	SignPct    float64 // % of one core over the run
	VerifyPct  float64
	HashPct    float64
	TotalPct   float64
	PerNodePct float64
}

func (r Fig7Row) String() string {
	return fmt.Sprintf("%-13s sign=%.3f%% verify=%.3f%% hash=%.3f%% total=%.3f%%/node (ops: %d/%d/%d)",
		r.Config, r.SignPct, r.VerifyPct, r.HashPct, r.PerNodePct, r.Signs, r.Verifies, r.Hashes)
}

// Figure7 converts operation counts into estimated CPU load.
func Figure7(res *RunResult, costs CryptoCosts) Fig7Row {
	snap := res.Net.CryptoStats()
	row := Fig7Row{Config: res.Config, Signs: snap.Signs, Verifies: snap.Verifies,
		Hashes: snap.Hashes, HashedKiB: snap.HashedBytes / 1024}
	wall := res.Duration.Seconds()
	if wall <= 0 {
		return row
	}
	row.SignPct = float64(snap.Signs) * costs.Sign.Seconds() / wall * 100
	row.VerifyPct = float64(snap.Verifies) * costs.Verify.Seconds() / wall * 100
	row.HashPct = float64(snap.HashedBytes) / 1024 * costs.HashKiB.Seconds() / wall * 100
	row.TotalPct = row.SignPct + row.VerifyPct + row.HashPct
	nodes := len(res.Net.Nodes())
	if nodes > 0 {
		row.PerNodePct = row.TotalPct / float64(nodes)
	}
	return row
}

// ---------------------------------------------------------------------------
// Figure 8: query turnaround and downloads.

// DownloadMbps is the assumed querier downlink (the paper estimates
// turnaround at 10 Mbps).
const DownloadMbps = 10.0

// Fig8Row is one query of Figure 8.
type Fig8Row struct {
	Query        string
	LogBytes     int64
	AuthBytes    int64
	CkptBytes    int64
	ReplayTime   time.Duration
	VerifyTime   time.Duration
	DownloadTime time.Duration
	Turnaround   time.Duration
	Answer       int // explanation vertices
	Red          int
}

func (r Fig8Row) String() string {
	return fmt.Sprintf("%-18s dl=%8dB (logs %d / auth %d / ckpt %d)  replay=%v verify=%v est-turnaround=%v answer=%d red=%d",
		r.Query, r.LogBytes+r.AuthBytes+r.CkptBytes, r.LogBytes, r.AuthBytes, r.CkptBytes,
		r.ReplayTime.Round(time.Millisecond), r.VerifyTime.Round(time.Millisecond),
		r.Turnaround.Round(time.Millisecond), r.Answer, r.Red)
}

func fig8Row(name string, q *core.Querier, expl *core.Explanation) Fig8Row {
	m := q.Metrics
	row := Fig8Row{
		Query: name, LogBytes: m.LogBytes, AuthBytes: m.AuthBytes, CkptBytes: m.CkptBytes,
		ReplayTime: m.ReplayTime, VerifyTime: m.VerifyTime,
	}
	bits := float64(m.TotalBytes()) * 8
	row.DownloadTime = time.Duration(bits / (DownloadMbps * 1e6) * float64(time.Second))
	row.Turnaround = row.DownloadTime + row.ReplayTime + row.VerifyTime
	if expl != nil {
		row.Answer = expl.Size()
		row.Red = len(expl.FindColor(provgraph.Red))
	}
	return row
}

// QuaggaDisappearQuery runs the §7.2 Quagga-Disappear query on a finished
// Quagga run: why did some stub's route disappear?
func QuaggaDisappearQuery(res *RunResult) (Fig8Row, error) {
	q := res.NewQuerier()
	// The traversal may cross onto any router, so the whole deployment is
	// the audit scope: verification and replica replay for every node run
	// on the worker pool while the query walk commits them on demand.
	q.BeginAuditScope(res.Net.Nodes(), 0)
	defer q.CloseScope()
	// Find a withdrawn route at a stub: audit the stub first.
	target := types.NodeID("as52")
	if err := q.EnsureAudited(target, 0); err != nil {
		return Fig8Row{}, err
	}
	q.Auditor.Finalize()
	var gone types.Tuple
	for _, v := range q.Auditor.Graph().ByHost(target) {
		if v.Type == provgraph.VBelieveDisappear && v.Tuple.Rel == "advRoute" {
			gone = v.Tuple
			break
		}
	}
	if gone.Rel == "" {
		return Fig8Row{}, fmt.Errorf("eval: no disappeared route at %s", target)
	}
	expl, err := q.Explain(target, gone, core.QueryOpts{Mode: core.ModeDisappear, Scope: 12})
	if err != nil {
		return Fig8Row{}, err
	}
	return fig8Row("Quagga-Disappear", q, expl), nil
}

// QuaggaBadGadgetQuery asks for the provenance of a recently flapping
// route (stands in for the BadGadget investigation on the trace-driven
// run: any replaced route works the same way).
func QuaggaBadGadgetQuery(res *RunResult) (Fig8Row, error) {
	q := res.NewQuerier()
	q.BeginAuditScope(res.Net.Nodes(), 0)
	defer q.CloseScope()
	target := types.NodeID("as30")
	if err := q.EnsureAudited(target, 0); err != nil {
		return Fig8Row{}, err
	}
	q.Auditor.Finalize()
	var route types.Tuple
	for _, v := range q.Auditor.Graph().ByHost(target) {
		if v.Type == provgraph.VBelieveAppear && v.Tuple.Rel == "advRoute" {
			route = v.Tuple // keep the last: the most recent flap
		}
	}
	if route.Rel == "" {
		return Fig8Row{}, fmt.Errorf("eval: no route appearances at %s", target)
	}
	expl, err := q.Explain(target, route, core.QueryOpts{Mode: core.ModeAppear, Scope: 12})
	if err != nil {
		return Fig8Row{}, err
	}
	return fig8Row("Quagga-BadGadget", q, expl), nil
}

// ChordLookupQuery runs the §7.2 Chord-Lookup query: the provenance of one
// stored lookup result.
func ChordLookupQuery(res *RunResult) (Fig8Row, error) {
	q := res.NewQuerier()
	// The candidate scan demands nodes in deployment order, so the scope
	// list doubles as the pipeline order: workers stay a few nodes ahead of
	// the serial commit frontier.
	q.BeginAuditScope(res.Workload.Nodes, 0)
	defer q.CloseScope()
	name := fmt.Sprintf("Chord-Lookup(%s)", res.Config)
	for _, n := range res.Workload.Nodes {
		if err := q.EnsureAudited(n, 0); err != nil {
			continue
		}
		q.Auditor.Finalize()
		for _, v := range q.Auditor.Graph().ByHost(n) {
			if v.Type == provgraph.VExist && v.Tuple.Rel == "result" && v.Open() {
				expl, err := q.Explain(n, v.Tuple, core.QueryOpts{Scope: 16})
				if err != nil {
					return Fig8Row{}, err
				}
				return fig8Row(name, q, expl), nil
			}
		}
	}
	return Fig8Row{}, fmt.Errorf("eval: no lookup results found")
}

// HadoopSquirrelQuery runs the §7.2 Hadoop-Squirrel query: the provenance
// of one output pair.
func HadoopSquirrelQuery(res *RunResult) (Fig8Row, error) {
	q := res.NewQuerier()
	q.BeginAuditScope(res.Net.Nodes(), 0)
	defer q.CloseScope()
	owner := mapreduce.Partition("squirrel", mapreduce.Reducers(res.Workload.Nodes))
	if err := q.EnsureAudited(owner, 0); err != nil {
		return Fig8Row{}, err
	}
	q.Auditor.Finalize()
	var out types.Tuple
	for _, v := range q.Auditor.Graph().ByHost(owner) {
		if v.Type == provgraph.VExist && v.Tuple.Rel == "out" && v.Tuple.Args[1].Str == "squirrel" {
			out = v.Tuple
		}
	}
	if out.Rel == "" {
		return Fig8Row{}, fmt.Errorf("eval: no squirrel output on %s", owner)
	}
	expl, err := q.Explain(owner, out, core.QueryOpts{})
	if err != nil {
		return Fig8Row{}, err
	}
	return fig8Row(fmt.Sprintf("Hadoop-Squirrel(%s)", res.Config), q, expl), nil
}

// ---------------------------------------------------------------------------
// Figure 9: Chord scalability.

// Fig9Row is one point of Figure 9.
type Fig9Row struct {
	N               int
	SNPBytesPerSec  float64 // per node
	BaseBytesPerSec float64
	LogKBPerMin     float64 // per node
}

func (r Fig9Row) String() string {
	return fmt.Sprintf("N=%3d  traffic=%8.1f B/s/node (baseline %8.1f)  log=%7.2f kB/min/node",
		r.N, r.SNPBytesPerSec, r.BaseBytesPerSec, r.LogKBPerMin)
}

// Figure9 runs Chord at the given sizes and reports per-node traffic and
// log growth.
func Figure9(sizes []int, o Options) ([]Fig9Row, error) {
	o = o.normalize()
	rows := make([]Fig9Row, 0, len(sizes))
	for _, n := range sizes {
		res, err := run(ChordSmall, o, chordRing(o, n))
		if err != nil {
			return nil, err
		}
		secs := res.Duration.Seconds()
		t := res.Net.Traffic
		s := res.Net.LogStats()
		row := Fig9Row{N: n}
		row.SNPBytesPerSec = float64(t.TotalBytes()) / secs / float64(n)
		row.BaseBytesPerSec = float64(t.BaselineBytes) / secs / float64(n)
		row.LogKBPerMin = float64(s.GrossBytes-s.CkptBytes) / 1024 / (secs / 60) / float64(n)
		rows = append(rows, row)
		// Release store-backed logs before the next size reuses node names.
		_ = res.Net.CloseLogs()
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Batching ablation (§5.6 / §7.4 / §7.6).

// BatchRow compares one configuration with and without Tbatch.
type BatchRow struct {
	Tbatch        types.Time
	Envelopes     int64
	Messages      int64
	Signs         uint64
	TrafficFactor float64
}

func (r BatchRow) String() string {
	return fmt.Sprintf("Tbatch=%-8v envelopes=%7d msgs=%7d signs=%7d factor=%.2fx",
		r.Tbatch, r.Envelopes, r.Messages, r.Signs, r.TrafficFactor)
}

// BatchingAblation runs Quagga with and without message batching.
func BatchingAblation(o Options) (without, with BatchRow, err error) {
	o = o.normalize()
	res1, err := Run(Quagga, o)
	if err != nil {
		return without, with, err
	}
	without = batchRow(res1, 0)
	_ = res1.Net.CloseLogs()
	o2 := o
	o2.Tbatch = 100 * types.Millisecond
	res2, err := Run(Quagga, o2)
	if err != nil {
		return without, with, err
	}
	with = batchRow(res2, o2.Tbatch)
	_ = res2.Net.CloseLogs()
	return without, with, nil
}

func batchRow(res *RunResult, tb types.Time) BatchRow {
	t := res.Net.Traffic
	snap := res.Net.CryptoStats()
	row := BatchRow{Tbatch: tb, Envelopes: t.Envelopes, Messages: t.Messages, Signs: snap.Signs}
	if t.BaselineBytes > 0 {
		row.TrafficFactor = float64(t.TotalBytes()) / float64(t.BaselineBytes)
	}
	return row
}
