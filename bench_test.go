// Benchmarks regenerating the paper's evaluation figures (§7). BenchmarkEval
// runs every row of eval.Catalog as a sub-benchmark and reports the row's
// metrics via b.ReportMetric, so `go test -bench=. -benchmem` prints the same
// series the paper plots. The deterministic ones are pinned by the golden
// test in internal/eval; ns/op here is a smoke reading — `go run ./bench`
// is the timing record.
package repro

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/eval"
)

const benchScale = eval.Scale(0.02)

func BenchmarkEval(b *testing.B) {
	for _, row := range eval.Catalog() {
		b.Run(row.Name, func(b *testing.B) {
			b.ReportAllocs()
			var res eval.Result
			for i := 0; i < b.N; i++ {
				eval.Measure([]eval.Row{row}, eval.Options{Scale: benchScale}, func(_ eval.Row, r eval.Result, err error) {
					if err != nil {
						b.Fatal(err)
					}
					res = r
				})
			}
			for _, m := range res.Metrics {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}

// --- Audit micro-benchmarks --------------------------------------------------

// BenchmarkAuditorReplaySingleNode times one node's full audit — signature
// and hash-chain verification, entry decoding, and deterministic replay into
// a fresh provenance graph — which is the unit of work the parallel audit
// pipeline distributes across workers.
func BenchmarkAuditorReplaySingleNode(b *testing.B) {
	res, err := eval.Run(eval.ChordSmall, eval.Options{Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	node := res.Net.Nodes()[0]
	auth, err := res.Net.LatestAuth(node)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := res.Net.Retrieve(node, core.RetrieveRequest{Auth: auth})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auditor := core.NewAuditor(res.Net.Cfg.Core, res.Net.Dir, res.Workload.Factory, res.Net.Maintainer)
		if err := auditor.Commit(auditor.Prepare(node, resp, auth)); err != nil {
			b.Fatal(err)
		}
		auditor.Finalize()
	}
}

// BenchmarkSweepCold times what the evidence workload times, as a go
// benchmark a profiler can be pointed at: one cold whole-deployment
// adversary.AuditAll of a Quagga run — fresh querier, empty verification
// cache — at the GOMAXPROCS the benchmark runs with.
func BenchmarkSweepCold(b *testing.B) {
	res, err := eval.Run(eval.Quagga, eval.Options{Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	entries := res.Net.LogStats().Entries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cryptoutil.DefaultVerifyCache.Reset()
		q := res.NewQuerier()
		b.StartTimer()
		if v := adversary.AuditAll(q, res.Net.Maintainer); len(v.StrongNodes()) != 0 || len(v.Unresponsive) != 0 {
			b.Fatalf("honest deployment audited with evidence: %v", v)
		}
	}
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}
