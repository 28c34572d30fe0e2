package adversary_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/workload"
)

// conformanceSeeds returns the seed set the suite runs. The full matrix is
// seeds 1..3 and -short trims it to one seed. One seed of the full matrix is
// selected by subtest name: -run 'TestConformance$//seed=2'.
func conformanceSeeds() []int64 {
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

// appsExcept returns the conformance apps minus the named ones.
func appsExcept(skip ...string) []func(int64) *workload.Workload {
	var out []func(int64) *workload.Workload
	for _, app := range adversary.Apps() {
		if !slices.Contains(skip, app(1).Name) {
			out = append(out, app)
		}
	}
	return out
}

// conformanceApps is the matrix's app axis: every conformance app plus
// Quagga with two compromised routers at once (k=2). -short drops chord,
// the slowest deployment, and the k=2 row.
func conformanceApps() []func(int64) *workload.Workload {
	if testing.Short() {
		return appsExcept("chord")
	}
	quagga := adversary.Apps()[1]
	k2 := func(seed int64) *workload.Workload {
		w := quagga(seed)
		w.Name = "quagga-k2"
		w.Compromised = []types.NodeID{"as30", "as40"}
		return w
	}
	return append(adversary.Apps(), k2)
}

// corruptDir flips a byte in every regular file under dir (cache tables and
// their meta), simulating an attacker or bit-rot poisoning the audit cache
// on disk. It fails the test if there is nothing to corrupt — a toothless
// poison pass must not pass silently.
func corruptDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, de.Name())
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			continue
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatalf("nothing to corrupt under %s; the poison pass is toothless", dir)
	}
}

// TestConformanceStored re-runs the conformance matrix with every node's
// log spilled to an on-disk segment store and the persistent audit cache
// armed — the satellite dimension the in-memory matrix misses. One variant
// shares a healthy cache across the baseline and every adversarial re-run
// (each re-run makes the accumulated entries stale: same node names, new
// chains); the other corrupts the cache files on disk in between. Either
// way the §4.2 guarantee must hold exactly as it does in memory: a stale or
// poisoned cache entry may cost a fresh replay, never a provable accusation
// of an honest node.
func TestConformanceStored(t *testing.T) {
	apps := appsExcept("chord") // chord adds the least here
	if testing.Short() {
		apps = appsExcept("chord", "quagga")
	}
	for _, poison := range []bool{false, true} {
		name := "cache"
		if poison {
			name = "poisoned-cache"
		}
		t.Run(name, func(t *testing.T) {
			for _, app := range apps {
				t.Run(app(1).Name, func(t *testing.T) {
					root := t.TempDir()
					cacheDir := filepath.Join(root, "auditcache")
					cache, err := core.OpenAuditCache(cacheDir, nil)
					if err != nil {
						t.Fatal(err)
					}
					store := &adversary.StoreBacking{
						LogDir: filepath.Join(root, "logs"), Cache: cache}
					base, err := adversary.RunBaseline(app, 1, store)
					if err != nil {
						t.Fatalf("baseline: %v", err)
					}
					if cache.Misses() == 0 {
						t.Fatal("baseline never consulted the audit cache")
					}
					if poison {
						// Seal the baseline's entries to disk, corrupt every
						// cache file, and reopen: the adversarial runs below
						// then audit against a fully poisoned cache.
						if err := cache.Sync(); err != nil {
							t.Fatal(err)
						}
						if err := cache.Close(); err != nil {
							t.Fatal(err)
						}
						corruptDir(t, cacheDir)
						if cache, err = core.OpenAuditCache(cacheDir, nil); err != nil {
							t.Fatal(err)
						}
						store.Cache = cache
					}
					defer cache.Close()
					for _, p := range adversary.Catalog() {
						p := p
						t.Run(p.Name, func(t *testing.T) {
							res, err := adversary.RunConformance(app, p, 1, base, store)
							if err != nil {
								t.Fatalf("conformance run: %v", err)
							}
							t.Log(res)
							for _, v := range res.Violations {
								t.Errorf("invariant violated: %s", v)
							}
						})
					}
				})
			}
		})
	}
}

// TestConformance pins the paper's detection guarantee: every behavior in
// the adversary library, across every conformance app and seed, either
// yields evidence implicating only compromised nodes or leaves the honest
// nodes' provenance answers bit-identical to the adversary-free baseline.
func TestConformance(t *testing.T) {
	for _, app := range conformanceApps() {
		t.Run(app(1).Name, func(t *testing.T) {
			for _, seed := range conformanceSeeds() {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					base, err := adversary.RunBaseline(app, seed, nil)
					if err != nil {
						t.Fatalf("baseline: %v", err)
					}
					for _, p := range adversary.Catalog() {
						p := p
						t.Run(p.Name, func(t *testing.T) {
							res, err := adversary.RunConformance(app, p, seed, base, nil)
							if err != nil {
								t.Fatalf("conformance run: %v", err)
							}
							t.Log(res)
							for _, v := range res.Violations {
								t.Errorf("invariant violated: %s", v)
							}
						})
					}
				})
			}
		})
	}
}
