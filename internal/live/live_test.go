package live

import (
	"bytes"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/mincost"
	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestRegistry holds every registry entry to what the live drivers assume
// of it: the name round-trips, the compromised set and the partition victim
// are disjoint members of the deployment, and the callbacks every driver
// calls unconditionally are set.
func TestRegistry(t *testing.T) {
	for _, name := range AppNames() {
		app, err := AppByName(name)
		if err != nil {
			t.Fatalf("AppByName(%q): %v", name, err)
		}
		if app.Name != name {
			t.Errorf("AppByName(%q).Name = %q", name, app.Name)
		}
		if !slices.Contains(app.Nodes, app.Victim) {
			t.Errorf("%s: victim %s is not one of %v", name, app.Victim, app.Nodes)
		}
		if slices.Contains(app.Compromised, app.Victim) {
			t.Errorf("%s: victim %s is compromised", name, app.Victim)
		}
		for _, id := range app.Compromised {
			if !slices.Contains(app.Nodes, id) {
				t.Errorf("%s: compromised %s is not one of %v", name, id, app.Nodes)
			}
		}
		if app.Factory == nil || app.Probe == nil {
			t.Errorf("%s: Factory or Probe is nil", name)
		}
	}

	_, err := AppByName("nope")
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, name := range AppNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid app %q", err, name)
		}
	}
}

// directoryKeys marshals every node's public key in dir, in the app's node
// order.
func directoryKeys(t *testing.T, app *workload.Workload, dir *core.Directory) [][]byte {
	t.Helper()
	var out [][]byte
	for _, id := range app.Nodes {
		key, err := dir.Key(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, key.Marshal())
	}
	return out
}

// TestNewDeploymentDerivation pins what lets separate processes agree
// without talking: equal apps yield equal protocol configuration at
// DefaultTprop, and every node holds the key the simulator gives it in a
// deployment of the same workload, so an audit of one checks signatures
// against the keys the other signs with.
func TestNewDeploymentDerivation(t *testing.T) {
	for _, name := range AppNames() {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		deploy := func() *Deployment {
			d, err := NewDeployment(app)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		a, b := deploy(), deploy()
		if !reflect.DeepEqual(a.Cfg, b.Cfg) {
			t.Errorf("%s: same app, different Cfg:\n%+v\n%+v", name, a.Cfg, b.Cfg)
		}
		net := simnet.New(simnet.DefaultConfig())
		if err := net.Deploy(app); err != nil {
			t.Fatal(err)
		}
		live, sim := directoryKeys(t, app, a.Dir), directoryKeys(t, app, net.Dir)
		for i, id := range app.Nodes {
			if !bytes.Equal(live[i], sim[i]) {
				t.Errorf("%s: %s has one key in a live deployment and another under the simulator", name, id)
			}
		}
		if got := a.Cfg.Tprop; got != types.Time(DefaultTprop) {
			t.Errorf("%s: Tprop %v, want DefaultTprop", name, got)
		}
		if a.Cfg.DeltaClock != a.Cfg.Tprop/2 {
			t.Errorf("%s: DeltaClock = %v, want Tprop/2 = %v", name, a.Cfg.DeltaClock, a.Cfg.Tprop/2)
		}
	}
}

// TestStartRefusesOutsider: a node id the deployment has no key for is
// refused before anything is opened — no listener, no log store.
func TestStartRefusesOutsider(t *testing.T) {
	app, err := AppByName("mincost")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(app)
	if err != nil {
		t.Fatal(err)
	}
	d.Cfg.LogDir = t.TempDir()
	c := transport.NewCluster()
	defer c.Close()

	n, err := d.Start(c, "zz", "127.0.0.1:0", false, nil)
	if err == nil {
		_ = n.Stop()
		t.Fatal("Start accepted a node outside the deployment")
	}
	if !strings.Contains(err.Error(), "zz") {
		t.Errorf("error %q does not name the node", err)
	}
	if c.With("zz", func(*core.Node) {}) == nil {
		t.Error("the refused node is being served")
	}
	entries, err := os.ReadDir(d.Cfg.LogDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("the refused Start left %d entries in the log directory", len(entries))
	}
}

// TestNewRefusesBrokenProgram: a workload whose machines run a broken dlog
// program is refused, as the simulator refuses it, before any node opens a
// log store.
func TestNewRefusesBrokenProgram(t *testing.T) {
	app := mustApp(t, "mincost")
	prog := dlog.NewProgram()
	prog.Relation("r", 2, false)
	prog.Relation("r", 3, false) // redeclared with another shape
	app.Factory = dlog.Factory(prog)
	dir := t.TempDir()
	h, err := New(app, Options{Seed: 1, LogDir: dir})
	if err == nil {
		h.Close()
		t.Fatal("New started a deployment whose program is broken")
	}
	if !strings.Contains(err.Error(), "redeclared") {
		t.Errorf("error %q does not carry the program's", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("the refused deployment left %d entries in the log directory", len(entries))
	}
}

// TestNewRefusesUnlistedTimelineNode: a timeline entry for a node the
// workload does not list, which no driver would fire, is refused as the
// simulator refuses it.
func TestNewRefusesUnlistedTimelineNode(t *testing.T) {
	app := mustApp(t, "mincost")
	app.At("zz", 0, func(*core.Node) { t.Error("an action for an unlisted node ran") })
	h, err := New(app, Options{Seed: 1})
	if err == nil {
		h.Close()
		t.Fatal("New accepted a timeline for a node the workload does not list")
	}
	if !strings.Contains(err.Error(), "zz") {
		t.Errorf("error %q does not name the node", err)
	}
}

// TestStoreBackedNodeBoundsHotTail: a live node's store-backed log keeps
// only core.DefaultConfig's hot tail of decoded entries resident, as every
// other store-backed run does; the rest is read back from the store.
func TestStoreBackedNodeBoundsHotTail(t *testing.T) {
	h, err := New(mustApp(t, "mincost"), Options{Seed: 1, LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var length, cold uint64
	err = h.With("d", func(n *core.Node) {
		link := mincost.Link("d", "c", 9)
		for n.Log.Len() < 300 {
			n.InsertBase(link)
			n.DeleteBase(link)
		}
		length, cold = n.Log.Len(), n.Log.ColdEntries()
	})
	if err != nil {
		t.Fatal(err)
	}
	if tail := uint64(core.DefaultConfig().LogHotTail); cold == 0 || length-cold > tail {
		t.Errorf("%d of %d log entries are resident, want at most the hot tail of %d", length-cold, length, tail)
	}
}

// TestAppsAreIndependent: each AppByName value owns its per-node driver
// state. A daemon and a harness (or two harnesses in one test binary) each
// build their own; were quagga's speakers shared, the second deployment's
// as51 would find p51 already originated and never insert it. Every registry
// app is held to it the same way: on every node, the one-shot inputs of a
// second value must log what the first value's logged.
func TestAppsAreIndependent(t *testing.T) {
	// seeded starts id under a fresh value of the app, fires its one-shot
	// actions and returns how many entries they logged.
	seeded := func(t *testing.T, name string, id types.NodeID) uint64 {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDeployment(app)
		if err != nil {
			t.Fatal(err)
		}
		c := transport.NewCluster()
		defer c.Close()
		n, err := d.Start(c, id, "127.0.0.1:0", false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		var entries uint64
		if err := c.With(id, func(cn *core.Node) {
			for _, a := range app.Timeline[id] {
				if a.Every == 0 {
					a.Do(cn)
				}
			}
			entries = cn.Log.Len()
		}); err != nil {
			t.Fatal(err)
		}
		return entries
	}
	for _, name := range AppNames() {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs := uint64(0)
		for _, id := range app.Nodes {
			first, second := seeded(t, name, id), seeded(t, name, id)
			if first != second {
				t.Errorf("%s: %s logged %d entries under the first value, %d under the second", name, id, first, second)
			}
			inputs += first
		}
		if inputs == 0 {
			t.Errorf("%s: no node's one-shot inputs logged anything", name)
		}
	}
	if n := seeded(t, "quagga", "as51"); n == 0 {
		t.Error("quagga: as51 did not originate p51")
	}
}
