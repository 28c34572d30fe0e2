package bgp_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/bgp"
	"repro/internal/seclog"
	"repro/internal/simnet"
	"repro/internal/types"
)

// raceEnabled is set under -race, whose instrumentation changes what
// allocates.
var raceEnabled bool

// converged runs the evaluation's Quagga configuration at scale 0.03, seed 1
// (DefaultTopology, 450 trace updates over 27 s) to its horizon, then polls
// every speaker once more so that no import is left unread.
func converged(tb testing.TB) (*simnet.Net, map[types.NodeID]*bgp.Speaker) {
	tb.Helper()
	dur := 27 * types.Second
	w, speakers := bgp.New(bgp.DefaultTopology(), types.Second, dur, &bgp.Trace{
		Seed: 1, Updates: 450, PrefixPool: 200, Start: types.Second, Span: dur - 5*types.Second,
	})
	net := newNet()
	if err := net.Deploy(w); err != nil {
		tb.Fatal(err)
	}
	net.Run(dur)
	for _, id := range w.Nodes {
		poll(tb, net, speakers[id], dur+types.Second)
	}
	return net, speakers
}

// poll runs one Sync of sp at virtual time at, inside its node's event
// stream, lets the network deliver what it sent, and returns the maybe-rule
// entries the poll logged, rendered as "ins|del tuple [replaces ...]".
func poll(tb testing.TB, net *simnet.Net, sp *bgp.Speaker, at types.Time) []string {
	tb.Helper()
	node := net.Node(sp.Self)
	from := node.Log.Len()
	if err := net.AtNode(sp.Self, at, func() { sp.Sync(node) }); err != nil {
		tb.Fatal(err)
	}
	net.Run(at + types.Second)
	var out []string
	for seq := from + 1; seq <= node.Log.Len(); seq++ {
		e, err := node.Log.Entry(seq)
		if err != nil {
			tb.Fatal(err)
		}
		if e.MaybeRule == "" {
			continue
		}
		op := "ins"
		if e.Type == seclog.EDel {
			op = "del"
		}
		s := op + " " + e.Tuple.Key()
		if len(e.Replaces) > 0 {
			s += fmt.Sprintf(" replaces %v", e.Replaces)
		}
		out = append(out, s)
	}
	return out
}

// steadyAllocs bounds what a poll that changes nothing may allocate.
const steadyAllocs = 2

// TestSyncSteadyAllocs polls a converged speaker whose inputs do not
// change: the poll must log nothing and allocate next to nothing, because
// the RIB, the decisions and the working slices are reused and a tuple is
// built only for an export that changes.
func TestSyncSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	net, speakers := converged(t)
	for _, id := range []types.NodeID{"as10", "as30", "as40", "as51"} {
		sp, node := speakers[id], net.Node(id)
		head := node.Log.Len()
		n := testing.AllocsPerRun(20, func() { sp.Sync(node) })
		if node.Log.Len() != head {
			t.Errorf("%s: a poll with no input change logged %d entries", id, node.Log.Len()-head)
		}
		if n > steadyAllocs {
			t.Errorf("%s: a poll with no input change made %.0f allocations, want at most %d", id, n, steadyAllocs)
		}
	}
}

// TestSyncPolicyChange checks that reused state is not a cache: between two
// polls no tuple arrives, but an export filter now blocks one neighbor and a
// preference picks another's routes, and the second poll must withdraw or
// replace exactly the exports those policies touch.
func TestSyncPolicyChange(t *testing.T) {
	net := newNet()
	w, speakers := bgp.New([]bgp.ASLink{
		{A: "as10", B: "as20", RelAB: bgp.Peer},
		{A: "as30", B: "as10", RelAB: bgp.Provider},
		{A: "as30", B: "as20", RelAB: bgp.Provider},
		{A: "as51", B: "as30", RelAB: bgp.Provider},
		{A: "as52", B: "as30", RelAB: bgp.Provider},
	}, types.Second, 30*types.Second, nil)
	for _, id := range []types.NodeID{"as10", "as20", "as51", "as52"} {
		announce(w, speakers, id, types.Second, "p"+string(id[2:]))
	}
	if err := net.Deploy(w); err != nil {
		t.Fatal(err)
	}
	net.Run(30 * types.Second)
	sp := speakers["as30"]
	if got := poll(t, net, sp, 31*types.Second); len(got) != 0 {
		t.Fatalf("the first poll after convergence changed exports: %v", got)
	}
	sp.ExportFilter = func(to types.NodeID, _, _ string) bool { return to == "as52" }
	sp.PreferVia("as20")
	got := poll(t, net, sp, 33*types.Second)
	// p10's best route moves from as10 to as20: as51's export is replaced
	// (the replacement logs the old tuple's deletion, then the new one), and
	// every export to as52 is withdrawn; p52 never went to as52 (poison
	// reverse), and no export to a provider changes.
	want := []string{
		"del advRoute(@as51,p10,as30 as10,@as30)",
		"ins advRoute(@as51,p10,as30 as20 as10,@as30) replaces [advRoute(@as51,p10,as30 as10,@as30)]",
		"del advRoute(@as52,p10,as30 as10,@as30)",
		"del advRoute(@as52,p20,as30 as20,@as30)",
		"del advRoute(@as52,p51,as30 as51,@as30)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("second poll logged\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// BenchmarkSpeakerSync times one poll of a converged speaker with six
// neighbors (the regional provider as40) whose inputs do not change.
func BenchmarkSpeakerSync(b *testing.B) {
	net, speakers := converged(b)
	sp, node := speakers["as40"], net.Node("as40")
	b.ReportAllocs()
	for b.Loop() {
		sp.Sync(node)
	}
}

// FuzzPathFields holds the path scanners to strings.Fields, whose
// unicode.IsSpace splitting the auditor's ValidateExport has always used: a
// neighbor chooses the path string, so a scanner that split differently
// would let the speaker and the auditor disagree about a loop.
func FuzzPathFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "as1", " as1", "as1 ", "as1  as2", "as1\tas2", "\tas1\nas2\r",
		"as1\u00a0as2", "as1\u3000as2", " as1\u3000", "as1\u0085as2", "as1\xa0as2", "\xffas1 \xfe",
	} {
		f.Add(s, "as1")
	}
	f.Fuzz(func(t *testing.T, path, hop string) {
		fields := strings.Fields(path)
		if got := bgp.PathLen(path); got != len(fields) {
			t.Errorf("PathLen(%q) = %d, strings.Fields has %d", path, got, len(fields))
		}
		if got, want := bgp.OnPath(path, types.NodeID(hop)), slices.Contains(fields, hop); got != want {
			t.Errorf("OnPath(%q, %q) = %v, want %v", path, hop, got, want)
		}
		for _, f := range fields {
			if !bgp.OnPath(path, types.NodeID(f)) {
				t.Errorf("OnPath(%q, %q) = false for one of its fields", path, f)
			}
		}
	})
}
