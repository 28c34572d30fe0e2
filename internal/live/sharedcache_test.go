package live

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
)

// verdictKey flattens the deterministic parts of a verdict for equality:
// provable failures (node + reason), red hosts, and the unresponsive set.
func verdictKey(v *adversary.Verdict) string {
	var fails []string
	for _, f := range v.Failures {
		fails = append(fails, fmt.Sprintf("%s:%s", f.Node, f.Reason))
	}
	sort.Strings(fails)
	var down []string
	for id := range v.Unresponsive {
		down = append(down, string(id))
	}
	sort.Strings(down)
	return fmt.Sprintf("fails=%v red=%v down=%v", fails, v.RedHosts, down)
}

// TestConcurrentQueriersSharedCache pins the frontend's core sharing
// assumption at the harness level: many concurrent Querier sessions (each
// single-goroutine, each a fresh Auditor) auditing the same live-TCP
// deployment through one persistent audit cache must produce verdicts
// identical to a serial, cache-less reference — same provable evidence
// against the tamperer, zero false accusations — and the cache must
// actually serve hits across the sessions.
func TestConcurrentQueriersSharedCache(t *testing.T) {
	app := mustApp(t, "mincost")
	profile, ok := adversary.ProfileByName("tamper-log")
	if !ok {
		t.Fatal("tamper-log profile missing from catalog")
	}
	h, err := New(app, Options{Seed: 5, OnNode: profile.On(app.Compromised).Hook()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.RunUntil(h.Converged, 8*time.Second); err != nil {
		t.Logf("note: %v", err)
	}
	h.Settle()

	// Serial in-process reference, no cache.
	ref := adversary.AuditAll(h.NewQuerier(), h.Maint)
	refKey := verdictKey(ref)
	t.Logf("reference verdict: %v", ref)
	if breaches := ref.CheckGuarantee(profile.Class, app.Compromised, "", false); len(breaches) != 0 {
		t.Fatalf("reference run already violates §4.2: %v", breaches)
	}

	// Concurrent sessions over one persistent cache. The queriers are
	// created serially (harness bookkeeping is not concurrent-safe) and
	// then driven one per goroutine, as core.Querier requires.
	cache, err := core.OpenAuditCache(filepath.Join(t.TempDir(), "cache"), h.Cfg.Suite)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	h.Cfg.AuditCache = cache

	const sessions = 4
	queriers := make([]*core.Querier, sessions)
	for i := range queriers {
		queriers[i] = h.NewQuerier()
	}
	verdicts := make([]*adversary.Verdict, sessions)
	var wg sync.WaitGroup
	for i := range queriers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i] = adversary.AuditAll(queriers[i], h.Maint)
		}(i)
	}
	wg.Wait()

	for i, v := range verdicts {
		for _, breach := range v.CheckGuarantee(profile.Class, app.Compromised, "", false) {
			t.Errorf("session %d: §4.2 violated: %s\nfailures: %v\nred: %v", i, breach, v.Failures, v.RedHosts)
		}
		if got := verdictKey(v); got != refKey {
			t.Errorf("session %d verdict diverged from the serial reference:\n got: %s\nwant: %s", i, got, refKey)
		}
		if !reflect.DeepEqual(v.StrongNodes(), ref.StrongNodes()) {
			t.Errorf("session %d strong nodes %v != reference %v", i, v.StrongNodes(), ref.StrongNodes())
		}
	}
	if cache.Hits() == 0 {
		t.Error("four concurrent sessions over one cache recorded no hits")
	}
	if cache.Misses() == 0 {
		t.Error("the cache was never populated; the sessions did not go through it")
	}
}
