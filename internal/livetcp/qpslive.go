// Over-the-wire query throughput: the live companion to eval's in-process
// qps figure. A real frontend serves concurrent remote clients auditing a
// live TCP deployment; the cold pass populates the shared persistent
// audit cache through the frontend's session pool, the warm pass must be
// served entirely from it. Latencies are measured client-side (they
// include the wire and the admission queue — what an analyst would see).
package livetcp

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/quantile"
	"repro/internal/queryfront"
	"repro/internal/types"
)

// QPSLiveRow is one pass of the over-the-wire throughput figure.
type QPSLiveRow struct {
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

func (r QPSLiveRow) String() string {
	return fmt.Sprintf("%-10s workers=%d queries=%d qps=%7.1f p50=%-10v p99=%-10v cache: %d hits / %d misses",
		r.Label, r.Workers, r.Queries, r.QPS,
		r.P50.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond), r.Hits, r.Misses)
}

// QPSLive runs the Quagga workload over loopback TCP, then measures
// sustained audit-query throughput through a query frontend: workers
// concurrent clients each own one connection and repeatedly submit
// single-target audit queries (round-robin over the deployment), queries
// in total per pass. The frontend's session pool matches workers, so no
// query should shed; the warm pass re-reads every segment from the
// persistent cache the cold pass populated, and any warm miss fails the
// run (segment identity must not drift under a live frontend either).
func QPSLive(seed int64, workers, queries int, dir string) ([]QPSLiveRow, *queryfront.FrontStats, error) {
	if workers <= 0 {
		workers = 4
	}
	if queries <= 0 {
		queries = 32
	}
	app, err := live.AppByName("quagga")
	if err != nil {
		return nil, nil, err
	}
	h, err := New(app, Options{Seed: seed, LogDir: filepath.Join(dir, "store")})
	if err != nil {
		return nil, nil, err
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 15*time.Second); err != nil {
		return nil, nil, err
	}
	h.Settle()

	cache, err := core.OpenAuditCache(filepath.Join(dir, "auditcache"), h.Cfg.Suite)
	if err != nil {
		return nil, nil, err
	}
	defer cache.Close()
	base := h.Cfg
	base.AuditCache = cache

	srv, err := queryfront.Serve(queryfront.Config{
		Cluster: h.Cluster, Base: base, Dir: h.Dir,
		Factory: app.Factory, ConfigureQuerier: app.ConfigureQuerier,
		Sessions: workers, QueueLen: 4 * workers,
		QueryTimeout: time.Minute,
	}, "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()

	targets := append([]types.NodeID(nil), app.Nodes...)

	pass := func(label string) (QPSLiveRow, error) {
		h0, m0 := cache.Hits(), cache.Misses()
		durs := make([]time.Duration, queries)
		errs := make(chan error, workers)
		next := make(chan int, queries)
		for i := 0; i < queries; i++ {
			next <- i
		}
		close(next)
		start := time.Now()
		for w := 0; w < workers; w++ {
			go func() {
				cl, dialErr := queryfront.Dial(srv.Addr())
				if dialErr != nil {
					errs <- dialErr
					return
				}
				defer cl.Close()
				for i := range next {
					target := targets[i%len(targets)]
					qs := time.Now()
					res, auditErr := cl.Audit(target)
					if auditErr != nil {
						errs <- fmt.Errorf("livetcp: qps-live %s audit of %s: %w", label, target, auditErr)
						return
					}
					if len(res.Failures) != 0 || len(res.RedHosts) != 0 {
						errs <- fmt.Errorf("livetcp: qps-live %s: honest run produced provable evidence: %+v", label, res)
						return
					}
					durs[i] = time.Since(qs)
				}
				errs <- nil
			}()
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				return QPSLiveRow{}, err
			}
		}
		elapsed := time.Since(start)
		return QPSLiveRow{
			Label: label, Workers: workers, Queries: queries, Elapsed: elapsed,
			QPS: float64(queries) / elapsed.Seconds(),
			P50: quantile.Duration(durs, 50), P99: quantile.Duration(durs, 99),
			Hits: cache.Hits() - h0, Misses: cache.Misses() - m0,
		}, nil
	}

	cold, err := pass("cold-cache")
	if err != nil {
		return nil, nil, err
	}
	if err := cache.Sync(); err != nil {
		return nil, nil, err
	}
	warm, err := pass("warm-cache")
	if err != nil {
		return nil, nil, err
	}
	if warm.Misses != 0 {
		return nil, nil, fmt.Errorf("livetcp: warm qps-live pass missed the audit cache %d times", warm.Misses)
	}
	stats := srv.Stats()
	return []QPSLiveRow{cold, warm}, &stats, nil
}
