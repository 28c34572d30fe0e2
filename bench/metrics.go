package main

import (
	"fmt"
	"strings"
)

// Workload names, in the order they run.
const (
	wlNodeMem   = "node-mem"
	wlNodeStore = "node-store"
	wlQueryWire = "query-wire"
	wlEvidence  = "evidence"
)

var allWorkloads = []string{wlNodeMem, wlNodeStore, wlQueryWire, wlEvidence}

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before -compare calls it a
// regression; layer metrics carry none. Moves says which end-to-end metric,
// on which workload, a change to this layer metric should show up in.
type metricDef struct {
	Name      string
	Unit      string
	Better    string // "higher" or "lower"
	Bound     float64
	Workloads []string // workloads that measure it; nil = all
	Moves     string
}

func (d metricDef) on(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	nodeWL  = []string{wlNodeMem, wlNodeStore}
	auditWL = []string{wlQueryWire, wlEvidence}
)

// contractMetrics are the end-to-end metrics every workload reports, under
// one name each, because the driver wants every end-to-end metric from every
// workload. What each one is on each workload:
//
//	ops_per_s  node-mem, node-store: node_msgs_per_s; query-wire: queries_per_s;
//	           evidence: log entries audited per second of AuditAll
//	cold_s     node-mem: one cold run; node-store: restart_s;
//	           query-wire: cold_audit_s; evidence: evidence_s
//
// Their timings are normalised to the reference host speed (host.go): each
// sample is divided by the host's slowness while it ran. The native metrics
// below are the same samples as the wall clock saw them.
var contractMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cold_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// nativeMetrics are the end-to-end metrics under the names the issue fixed,
// each on the workloads that measure it. -json and -compare use these.
var nativeMetrics = []metricDef{
	{Name: "node_msgs_per_s", Unit: "msg/s", Better: "higher", Bound: 0.20, Workloads: nodeWL},
	{Name: "traffic_factor", Unit: "ratio", Better: "lower", Bound: 0.005, Workloads: []string{wlNodeMem}},
	{Name: "log_bytes_per_msg", Unit: "B/msg", Better: "lower", Bound: 0.005, Workloads: []string{wlNodeMem}},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.20, Workloads: []string{wlNodeStore}},
	{Name: "disk_bytes_per_log_byte", Unit: "ratio", Better: "lower", Bound: 0.02, Workloads: []string{wlNodeStore}},
	{Name: "cold_audit_s", Unit: "s", Better: "lower", Bound: 0.20, Workloads: []string{wlQueryWire}},
	{Name: "audit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Workloads: []string{wlQueryWire}},
	{Name: "audit_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wlQueryWire}},
	{Name: "explain_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Workloads: []string{wlQueryWire}},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, Workloads: []string{wlQueryWire}},
	{Name: "evidence_s", Unit: "s", Better: "lower", Bound: 0.20, Workloads: []string{wlEvidence}},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// endToEnd is every end-to-end metric the report prints.
var endToEnd = append(append([]metricDef(nil), contractMetrics...), nativeMetrics...)

// layerMetrics are the per-layer metrics of the traced run. A workload that
// gives a layer no work reports 0 for it.
var layerMetrics = []metricDef{
	{Name: "cryptoutil.sign_us", Unit: "us", Better: "lower", Moves: "ops_per_s on node-mem, node-store"},
	{Name: "cryptoutil.verify_us", Unit: "us", Better: "lower", Moves: "ops_per_s on node-*; cold_s on evidence, query-wire"},
	{Name: "cryptoutil.hash_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cold_s on evidence, node-store"},
	{Name: "cryptoutil.verify_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "ops_per_s on node-*"},
	{Name: "core.signs_per_msg", Unit: "count", Better: "lower", Moves: "ops_per_s on node-*"},
	{Name: "core.verifies_per_msg", Unit: "count", Better: "lower", Moves: "ops_per_s on node-*"},
	{Name: "wire.segment_encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cold_s, audit_p95_ms on query-wire"},
	{Name: "wire.segment_decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cold_s, audit_p95_ms on query-wire; cold_s on node-store"},
	{Name: "seclog.append_mem_us", Unit: "us", Better: "lower", Moves: "ops_per_s on node-mem"},
	{Name: "seclog.append_store_us", Unit: "us", Better: "lower", Moves: "ops_per_s on node-store"},
	{Name: "seclog.sync_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on node-store"},
	{Name: "seclog.open_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cold_s on node-store"},
	{Name: "seclog.segment_read_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "audit_p50_ms, cold_s on query-wire"},
	{Name: "seclog.verify_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cold_s on evidence, query-wire"},
	{Name: "seclog.tables", Unit: "count", Better: "lower", Workloads: []string{wlNodeStore}, Moves: "disk_bytes_per_log_byte, cold_s on node-store"},
	{Name: "seclog.disk_bytes", Unit: "B", Better: "lower", Workloads: []string{wlNodeStore}, Moves: "disk_bytes_per_log_byte on node-store"},
	{Name: "seclog.log_bytes_per_msg", Unit: "B/msg", Better: "lower", Workloads: nodeWL, Moves: "log_bytes_per_msg (exact)"},
	{Name: "seclog.disk_bytes_per_log_byte", Unit: "ratio", Better: "lower", Workloads: []string{wlNodeStore}, Moves: "disk_bytes_per_log_byte"},
	{Name: "simnet.traffic_factor", Unit: "ratio", Better: "lower", Workloads: nodeWL, Moves: "traffic_factor (exact)"},
	{Name: "simnet.sharded_over_serial", Unit: "ratio", Better: "higher", Workloads: []string{wlNodeMem}, Moves: "none: node workloads run the serial driver"},
	{Name: "dlog.step_us", Unit: "us", Better: "lower", Moves: "ops_per_s on node-*; cold_s on evidence"},
	{Name: "core.handle_retrieve_ms", Unit: "ms", Better: "lower", Moves: "audit_p50_ms, cold_s on query-wire"},
	{Name: "core.recover_node_ms", Unit: "ms", Better: "lower", Workloads: []string{wlNodeStore}, Moves: "cold_s on node-store"},
	{Name: "core.prepare_cold_ms", Unit: "ms", Better: "lower", Workloads: auditWL, Moves: "cold_s on evidence, query-wire"},
	{Name: "core.prepare_warm_ms", Unit: "ms", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "ops_per_s, audit_p50_ms, audit_p95_ms on query-wire"},
	{Name: "provgraph.commit_ms", Unit: "ms", Better: "lower", Workloads: auditWL, Moves: "ops_per_s on query-wire; cold_s on evidence"},
	{Name: "provgraph.vertices", Unit: "count", Better: "lower", Workloads: auditWL, Moves: "provgraph.commit_ms"},
	{Name: "core.finalize_ms", Unit: "ms", Better: "lower", Workloads: auditWL, Moves: "cold_s on evidence, query-wire"},
	{Name: "core.consistency_ms", Unit: "ms", Better: "lower", Workloads: auditWL, Moves: "cold_s on evidence, query-wire"},
	{Name: "core.explain_ms", Unit: "ms", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "explain_p50_ms on query-wire"},
	{Name: "core.auditcache_hit_ratio", Unit: "ratio", Better: "higher", Workloads: []string{wlQueryWire}, Moves: "ops_per_s on query-wire (must be 1 in the steady phase)"},
	{Name: "core.auditcache_disk_mb", Unit: "MiB", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "setup_s on query-wire"},
	{Name: "transport.rpc_rtt_us", Unit: "us", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "audit_p50_ms on query-wire"},
	{Name: "transport.retrieve_mb_per_s", Unit: "MB/s", Better: "higher", Workloads: []string{wlQueryWire}, Moves: "audit_p95_ms, cold_s on query-wire"},
	{Name: "transport.notes_sync_ms", Unit: "ms", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "audit_p50_ms on query-wire"},
	{Name: "transport.latest_auth_ms", Unit: "ms", Better: "lower", Workloads: auditWL, Moves: "audit_p50_ms on query-wire"},
	{Name: "transport.retrieve_ms", Unit: "ms", Better: "lower", Workloads: auditWL, Moves: "audit_p50_ms, cold_s on query-wire"},
	{Name: "transport.auths_about_ms", Unit: "ms", Better: "lower", Workloads: auditWL, Moves: "audit_p50_ms on query-wire"},
	{Name: "transport.errors", Unit: "count", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "failed_share on query-wire"},
	{Name: "queryfront.audit_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "audit_p50_ms (untraced, as the client sees it)"},
	{Name: "queryfront.audit_p95_ms", Unit: "ms", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "audit_p95_ms (untraced)"},
	{Name: "queryfront.explain_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "explain_p50_ms (untraced)"},
	{Name: "queryfront.overhead_ms", Unit: "ms", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "audit_p50_ms, ops_per_s on query-wire"},
	{Name: "queryfront.shed", Unit: "count", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "failed_share on query-wire"},
	{Name: "queryfront.expired", Unit: "count", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "failed_share on query-wire"},
	{Name: "queryfront.failed", Unit: "count", Better: "lower", Workloads: []string{wlQueryWire}, Moves: "failed_share on query-wire"},
	{Name: "adversary.detected_share", Unit: "ratio", Better: "higher", Workloads: []string{wlEvidence}, Moves: "failed_share on evidence (must be 1)"},
	{Name: "adversary.false_accusations", Unit: "count", Better: "lower", Workloads: []string{wlEvidence}, Moves: "failed_share on evidence (must be 0)"},
	{Name: "runtime.alloc_mb_per_msg", Unit: "MiB", Better: "lower", Workloads: nodeWL, Moves: "peak_heap_mb on node-*"},
	{Name: "runtime.alloc_mb_per_query", Unit: "MiB", Better: "lower", Workloads: auditWL, Moves: "peak_heap_mb, audit_p95_ms on query-wire"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower", Moves: "audit_p95_ms on query-wire; peak_heap_mb"},
	{Name: "node.unexplained_share", Unit: "ratio", Better: "lower", Workloads: nodeWL, Moves: "what in-program spans must later attribute"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Workloads: auditWL, Moves: "traced root / untraced end-to-end; 0.9-1.1 expected"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "(traced - untraced) / untraced on the lead metric"},
	{Name: "host.slowness", Unit: "ratio", Better: "lower", Moves: "every native timing; setup_s, ops_per_s and cold_s are divided by it"},
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, layerMetrics} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// result collects one workload's samples and its correctness verdicts.
type result struct {
	Workload  string
	Samples   map[string][]float64
	Attempted int
	Failed    int
	Problems  []string // first few failure messages, for the report
}

func newResult(workload string) *result {
	return &result{Workload: workload, Samples: map[string][]float64{}}
}

// add records one sample of a metric; names must be in the tables above so
// that a typo fails loudly instead of creating an unlisted metric.
func (r *result) add(name string, v float64) {
	if _, ok := findMetric(name); !ok {
		panic("bench: unlisted metric " + name)
	}
	r.Samples[name] = append(r.Samples[name], v)
}

// op counts one attempted operation; a non-nil err marks it failed.
func (r *result) op(err error) bool {
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, err.Error())
	}
	return false
}

// fail records a correctness failure that is not tied to one counted
// operation (a determinism gate, a set-up error).
func (r *result) fail(format string, args ...any) {
	r.op(fmt.Errorf(format, args...))
}

func (r *result) median(name string) float64 { return median(r.Samples[name]) }

// finish derives failed_share once the workload is done.
func (r *result) finish() {
	if r.Attempted == 0 {
		r.Attempted, r.Failed = 1, 1
		r.Problems = append(r.Problems, "no operation was attempted")
	}
	r.add("failed_share", float64(r.Failed)/float64(r.Attempted))
}

// table renders the metrics of defs that r has samples for.
func (r *result) table(defs []metricDef) string {
	var sb strings.Builder
	for _, d := range defs {
		xs, ok := r.Samples[d.Name]
		if !ok {
			continue
		}
		s := summarize(xs)
		fmt.Fprintf(&sb, "  %-36s %-6s n=%-4d median=%-12.6g q1=%-12.6g q3=%-12.6g min=%-12.6g max=%.6g\n",
			d.Name, d.Unit, s.N, s.Median, s.Q1, s.Q3, s.Min, s.Max)
	}
	return sb.String()
}
