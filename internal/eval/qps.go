// Sustained query throughput: the Fig-series companion the paper does not
// plot. Many concurrent Querier sessions audit a finished store-backed run
// (each query is a fresh auditor, so nothing carries over in process
// memory), once against an empty persistent audit cache and once against
// the cache the first pass populated. The pair separates the fixed cost of
// verification from the replica-replay cost the cache elides.
package eval

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/quantile"
	"repro/internal/types"
)

// QPSRow is one row of the query-throughput figure: a pass of Queries
// audit-queries spread over Workers concurrent querier scopes.
type QPSRow struct {
	Label   string // "cold-cache" or "warm-cache"
	Workers int
	Queries int
	Elapsed time.Duration
	QPS     float64
	P50     time.Duration
	P99     time.Duration
	// Hits and Misses are the audit-cache counter deltas over the pass.
	Hits   uint64
	Misses uint64
}

func (r QPSRow) String() string {
	return fmt.Sprintf("%-10s workers=%d queries=%d qps=%7.1f p50=%-10v p99=%-10v cache: %d hits / %d misses",
		r.Label, r.Workers, r.Queries, r.QPS,
		r.P50.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond), r.Hits, r.Misses)
}

// QueryThroughput runs the Quagga workload store-backed under dir, then
// measures sustained audit-query throughput: workers concurrent goroutines
// each repeatedly open a fresh Querier scope, audit one node (round-robin
// over the deployment), and finalize — queries times in total per pass. The
// cold pass starts with an empty persistent audit cache (its misses are the
// population cost); the warm pass re-reads the same segments from the cache.
func QueryThroughput(o Options, workers, queries int, dir string) ([]QPSRow, error) {
	o = o.normalize()
	if workers <= 0 {
		workers = 4
	}
	if queries <= 0 {
		queries = 48
	}
	if o.LogDir == "" {
		o.LogDir = filepath.Join(dir, "store")
	}
	if o.LogHotTail == 0 {
		o.LogHotTail = DefaultHotTail
	}
	cache, err := core.OpenAuditCache(filepath.Join(dir, "auditcache"), o.simCfg().Core.Suite)
	if err != nil {
		return nil, err
	}
	o.AuditCache = cache
	res, err := Run(Quagga, o)
	if err != nil {
		_ = cache.Close()
		return nil, err
	}
	defer func() {
		_ = res.Net.CloseLogs()
		_ = cache.Close()
	}()

	targets := append([]types.NodeID(nil), res.Net.Nodes()...)
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	pass := func(label string) (QPSRow, error) {
		h0, m0 := cache.Hits(), cache.Misses()
		durs := make([]time.Duration, queries)
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			next     int
			firstErr error
		)
		claim := func() int {
			mu.Lock()
			defer mu.Unlock()
			if firstErr != nil || next >= queries {
				return -1
			}
			next++
			return next - 1
		}
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := claim()
					if i < 0 {
						return
					}
					target := targets[i%len(targets)]
					qs := time.Now()
					q := res.NewQuerier()
					q.BeginAuditScope([]types.NodeID{target}, 0)
					aerr := q.EnsureAudited(target, 0)
					q.Auditor.Finalize()
					q.CloseScope()
					durs[i] = time.Since(qs)
					if aerr != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("eval: qps %s audit of %s: %w", label, target, aerr)
						}
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if firstErr != nil {
			return QPSRow{}, firstErr
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return QPSRow{
			Label: label, Workers: workers, Queries: queries, Elapsed: elapsed,
			QPS: float64(queries) / elapsed.Seconds(),
			P50: quantile.SortedDuration(durs, 50), P99: quantile.SortedDuration(durs, 99),
			Hits: cache.Hits() - h0, Misses: cache.Misses() - m0,
		}, nil
	}

	cold, err := pass("cold-cache")
	if err != nil {
		return nil, err
	}
	if err := cache.Sync(); err != nil {
		return nil, err
	}
	warm, err := pass("warm-cache")
	if err != nil {
		return nil, err
	}
	if warm.Misses != 0 {
		// Segment identity must not drift between passes over a finished run:
		// a warm miss means the cache key (node, range, head hash) changed,
		// which would also defeat the cache in a long-lived audit service.
		return nil, fmt.Errorf("eval: warm qps pass missed the audit cache %d times", warm.Misses)
	}
	return []QPSRow{cold, warm}, nil
}
