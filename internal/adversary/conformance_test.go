package adversary_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/workload"
)

// simApp is the simulator column's sizing: adversary.SimApp, and quagga-k2,
// Quagga with two compromised routers at once.
func simApp(name string, seed int64) *workload.Workload {
	if name == "quagga-k2" {
		w := adversary.SimApp("quagga", seed)
		w.Name, w.Compromised = name, []types.NodeID{"as30", "as40"}
		return w
	}
	return adversary.SimApp(name, seed)
}

func simPath(r adversary.Row) string { return fmt.Sprintf("%s/seed=%d/%s", r.App, r.Seed, r.Behavior) }

// TestConformance is the simulator's column of the conformance table: every
// behavior of the catalog on every conformance app and quagga-k2, at seeds
// 1..3, either yields evidence implicating only compromised nodes or leaves
// the honest nodes' provenance answers bit-identical to the adversary-free
// run's. -short trims it to seed 1 without chord, the slowest deployment,
// and quagga-k2. One seed: -run 'TestConformance$//seed=2'.
func TestConformance(t *testing.T) {
	col := adversary.Column[*testing.T]{Apps: []string{"mincost", "quagga", "chord", "mapreduce", "quagga-k2"}, App: simApp, Path: simPath}
	if testing.Short() {
		col.Apps = []string{"mincost", "quagga", "mapreduce"}
	} else {
		for _, seed := range []int64{2, 3} {
			for _, app := range col.Apps {
				for _, p := range adversary.Catalog() {
					col.Extra = append(col.Extra, adversary.Row{App: app, Behavior: p.Name, Seed: seed})
				}
			}
		}
	}
	col.Run(t)
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

// TestConformanceStored is the simulator's column with every node's log in
// an on-disk segment store and the persistent audit cache armed, in two
// variants. One shares a healthy cache between an app's adversary-free run
// and every row after it (each row makes the entries before it stale: same
// node names, new chains); the other corrupts the cache files on disk after
// the adversary-free run. Either way each row holds to the §4.2 guarantee
// against the stored adversary-free run's answers and to the in-memory
// simulator's outcome: a stale or poisoned entry may cost a fresh replay,
// never an accusation or a missed fault.
func TestConformanceStored(t *testing.T) {
	apps := []string{"mincost", "quagga", "mapreduce"} // chord adds the least here
	if testing.Short() {
		apps = []string{"mincost", "mapreduce"}
	}
	for _, poison := range []bool{false, true} {
		name := "cache"
		if poison {
			name = "poisoned-cache"
		}
		t.Run(name, func(t *testing.T) {
			outer := t
			stores := map[string]*adversary.StoreBacking{}
			bases := map[string]*adversary.Result{}
			adversary.Column[*testing.T]{Apps: apps, App: adversary.SimApp,
				Path: func(r adversary.Row) string { return r.App + "/" + r.Behavior },
				Drive: func(t *testing.T, row adversary.Row, w *workload.Workload) *adversary.Verdict {
					if stores[row.App] == nil {
						stores[row.App], bases[row.App] = openStore(outer, t, row, poison)
					}
					res, err := adversary.Simulate(w, row, stores[row.App], bases[row.App])
					if err != nil {
						t.Fatalf("row on store: %v", err)
					}
					t.Logf("on store: %v", res)
					for _, v := range res.Verdict.CheckGuarantee(res.Class, res.Compromised, "", res.AnswersIdentical) {
						t.Errorf("on store: invariant violated: %s", v)
					}
					return res.Verdict
				}}.Run(t)
		})
	}
}

// openStore opens a log store and an audit cache under outer's temporary
// directory, which closes the cache when it ends, and runs row's app and
// seed adversary-free on them; that run must consult the cache. With poison
// it then corrupts every cache file and reopens the cache.
func openStore(outer, t *testing.T, row adversary.Row, poison bool) (*adversary.StoreBacking, *adversary.Result) {
	root := outer.TempDir()
	cacheDir := filepath.Join(root, "auditcache")
	cache, err := core.OpenAuditCache(cacheDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := &adversary.StoreBacking{LogDir: filepath.Join(root, "logs"), Cache: cache}
	outer.Cleanup(func() { store.Cache.Close() })
	honest := adversary.Row{App: row.App, Behavior: adversary.Honest, Seed: row.Seed}
	base, err := adversary.Simulate(adversary.SimApp(row.App, row.Seed), honest, store, nil)
	if err != nil {
		t.Fatalf("baseline on store: %v", err)
	}
	if cache.Misses() == 0 {
		t.Fatal("baseline never consulted the audit cache")
	}
	if poison {
		// Seal the baseline's entries to disk, corrupt every cache file and
		// reopen: the rows then audit against a fully poisoned cache.
		if err := cache.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := cache.Close(); err != nil {
			t.Fatal(err)
		}
		corruptDir(t, cacheDir)
		if store.Cache, err = core.OpenAuditCache(cacheDir, nil); err != nil {
			t.Fatal(err)
		}
	}
	return store, base
}
