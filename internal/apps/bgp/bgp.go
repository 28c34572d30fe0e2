// Package bgp reproduces the paper's Quagga application (§6.3): a BGP
// speaker treated as a *black box*, wrapped by a small SNooPy proxy that
// converts BGP announcements into tuples using an external specification
// (extraction method #3 of §5.3). The specification mirrors the paper's
// four rules:
//
//  1. announcements propagate between networks (advRoute tuples are shipped
//     to the neighbor and believed there);
//  2. + 3. a network exports at most one route per prefix to each neighbor
//     at a time (enforced with §3.4 replacement constraints);
//  4. a 'maybe' rule: every exported route either originates locally or
//     extends a route previously advertised to the network — the speaker's
//     actual decision process (its policy) stays confidential.
//
// The speaker implements a standard BGP decision process with
// Gao–Rexford-style export policies, plus per-node preference overrides
// used to build BadGadget instances (§7.2) and export filters used for the
// Quagga-Disappear scenario.
package bgp

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dlog"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// Rel classifies a neighbor relationship (Gao–Rexford).
type Rel uint8

// Neighbor relationships, from the exporter's point of view. Sibling is a
// mutual-transit relationship (both sides export everything); it is used to
// instantiate policy gadgets such as BadGadget.
const (
	Customer Rel = iota // neighbor pays us
	Peer
	Provider // we pay the neighbor
	Sibling
)

// ExportRule is the name of the proxy's maybe rule.
const ExportRule = "export"

// Program declares the proxy's relations: no derivation rules — the
// computation is the black-box speaker; the dlog machine only stores,
// ships, and believes tuples.
func Program() *dlog.Program {
	p := dlog.NewProgram()
	p.Relation("origin", 2, false)   // origin(@N, Prefix)
	p.Relation("advRoute", 4, false) // advRoute(@To, Prefix, Path, From)
	return p
}

// AdvRoute builds an advRoute(@to, prefix, path, from) tuple. Path is a
// space-separated AS list, most recent first.
func AdvRoute(to types.NodeID, prefix, path string, from types.NodeID) types.Tuple {
	return types.MakeTuple("advRoute", types.N(to), types.S(prefix), types.S(path), types.N(from))
}

// Origin builds an origin(@n, prefix) base tuple.
func Origin(n types.NodeID, prefix string) types.Tuple {
	return types.MakeTuple("origin", types.N(n), types.S(prefix))
}

// ValidateExport is the auditor-side check for the proxy's maybe rule
// (rule 4): the head path must either be exactly the exporter (with a local
// origin tuple as body) or the exporter prepended to a path some neighbor
// previously advertised (with that import as body). It also rejects paths
// that loop through the exporter.
func ValidateExport(rule string, host types.NodeID, head types.Tuple, body []types.Tuple) bool {
	if rule != ExportRule {
		return true
	}
	if head.Rel != "advRoute" || len(head.Args) != 4 || len(body) != 1 {
		return false
	}
	prefix, path := head.Args[1].Str, head.Args[2].Str
	if head.Args[3].Node() != host {
		return false // an exporter can only speak for itself
	}
	b := body[0]
	switch b.Rel {
	case "origin":
		return b.Args[0].Node() == host && b.Args[1].Str == prefix && path == string(host)
	case "advRoute":
		if b.Args[0].Node() != host || b.Args[1].Str != prefix {
			return false
		}
		imported := b.Args[2].Str
		if path != string(host)+" "+imported {
			return false
		}
		// Loop check: the exporter must not already be on the path.
		for _, hop := range strings.Fields(imported) {
			if hop == string(host) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// route is one candidate in the speaker's RIB.
type route struct {
	path string
	from types.NodeID
	rel  Rel
}

// Speaker is the black-box BGP daemon for one network: it keeps a RIB of
// imported routes, runs a decision process, and exports per policy. It is
// driven by Sync, which diffs desired exports against the proxy state and
// issues maybe-rule firings on the SNooPy node.
type Speaker struct {
	Self      types.NodeID
	Neighbors map[types.NodeID]Rel
	// Prefer, when non-nil, ranks two candidate routes (return true when a
	// beats b); used to configure BadGadget-style policies. The default
	// prefers customer routes, then shorter paths, then lower neighbor.
	Prefer func(prefix string, a, b route) bool
	// ExportFilter, when non-nil, suppresses an export (used by the
	// Quagga-Disappear scenario).
	ExportFilter func(to types.NodeID, prefix, path string) bool

	origins map[string]bool
	rib     map[string]map[types.NodeID]route // prefix -> from -> route
	exports map[types.NodeID]map[string]exported
}

type exported struct {
	path string
	body types.Tuple
}

// NewSpeaker creates a speaker for self with the given neighbor relations.
func NewSpeaker(self types.NodeID, neighbors map[types.NodeID]Rel) *Speaker {
	return &Speaker{
		Self:      self,
		Neighbors: neighbors,
		origins:   make(map[string]bool),
		rib:       make(map[string]map[types.NodeID]route),
		exports:   make(map[types.NodeID]map[string]exported),
	}
}

// Announce originates a prefix (a RouteViews-style announce update).
func (s *Speaker) Announce(node *core.Node, prefix string) {
	if s.origins[prefix] {
		return
	}
	s.origins[prefix] = true
	node.InsertBase(Origin(s.Self, prefix))
	s.Sync(node)
}

// Withdraw retracts a locally originated prefix.
func (s *Speaker) Withdraw(node *core.Node, prefix string) {
	if !s.origins[prefix] {
		return
	}
	delete(s.origins, prefix)
	node.DeleteBase(Origin(s.Self, prefix))
	s.Sync(node)
}

// Sync reads the proxy state (believed imports) from the node's machine,
// runs the decision process, and reconciles exports through maybe-rule
// firings. The harness calls it after updates are delivered.
func (s *Speaker) Sync(node *core.Node) {
	m := node.Machine.(*dlog.Machine)
	// Rebuild the RIB from believed advRoute tuples.
	s.rib = make(map[string]map[types.NodeID]route)
	for _, t := range m.TuplesOf("advRoute") {
		prefix, path, from := t.Args[1].Str, t.Args[2].Str, t.Args[3].Node()
		rel, ok := s.Neighbors[from]
		if !ok {
			continue // ignore strangers
		}
		if s.loops(path) {
			continue // loop prevention on import
		}
		if s.rib[prefix] == nil {
			s.rib[prefix] = make(map[types.NodeID]route)
		}
		s.rib[prefix][from] = route{path: path, from: from, rel: rel}
	}
	// Decide best route per prefix and compute desired exports.
	desired := make(map[types.NodeID]map[string]exported)
	prefixes := map[string]bool{}
	for p := range s.origins {
		prefixes[p] = true
	}
	for p := range s.rib {
		prefixes[p] = true
	}
	sortedPrefixes := make([]string, 0, len(prefixes))
	for p := range prefixes {
		sortedPrefixes = append(sortedPrefixes, p)
	}
	sort.Strings(sortedPrefixes)
	for _, prefix := range sortedPrefixes {
		var bestPath string
		var bestBody types.Tuple
		var exportable bool // Gao–Rexford: only customer routes go to non-customers
		if s.origins[prefix] {
			bestPath = string(s.Self)
			bestBody = Origin(s.Self, prefix)
			exportable = true
		} else {
			best, ok := s.best(prefix)
			if !ok {
				continue
			}
			bestPath = string(s.Self) + " " + best.path
			bestBody = AdvRoute(s.Self, prefix, best.path, best.from)
			exportable = best.rel == Customer || best.rel == Sibling
		}
		for nbr, rel := range s.Neighbors {
			if !exportable && rel != Customer {
				continue // valley-free export policy
			}
			if onPath(bestPath, nbr) {
				continue // poison reverse: don't offer a route through them
			}
			if s.ExportFilter != nil && s.ExportFilter(nbr, prefix, bestPath) {
				continue
			}
			if desired[nbr] == nil {
				desired[nbr] = make(map[string]exported)
			}
			desired[nbr][prefix] = exported{path: bestPath, body: bestBody}
		}
	}
	// Reconcile: withdrawals first, then announcements/replacements.
	nbrs := make([]string, 0, len(s.Neighbors))
	for n := range s.Neighbors {
		nbrs = append(nbrs, string(n))
	}
	sort.Strings(nbrs)
	for _, ns := range nbrs {
		nbr := types.NodeID(ns)
		cur := s.exports[nbr]
		want := desired[nbr]
		curPrefixes := make([]string, 0, len(cur))
		for p := range cur {
			curPrefixes = append(curPrefixes, p)
		}
		sort.Strings(curPrefixes)
		for _, p := range curPrefixes {
			if _, keep := want[p]; !keep {
				node.DeleteMaybe(ExportRule, AdvRoute(nbr, p, cur[p].path, s.Self), nil)
				delete(cur, p)
			}
		}
		wantPrefixes := make([]string, 0, len(want))
		for p := range want {
			wantPrefixes = append(wantPrefixes, p)
		}
		sort.Strings(wantPrefixes)
		for _, p := range wantPrefixes {
			d := want[p]
			old, had := cur[p]
			if had && old.path == d.path {
				continue
			}
			head := AdvRoute(nbr, p, d.path, s.Self)
			var replaces []types.Tuple
			if had {
				// Rules 2+3: one route per prefix per neighbor; the old
				// tuple's disappearance explains the new one (§3.4).
				replaces = append(replaces, AdvRoute(nbr, p, old.path, s.Self))
			}
			node.InsertMaybe(ExportRule, head, []types.Tuple{d.body}, replaces)
			if s.exports[nbr] == nil {
				s.exports[nbr] = make(map[string]exported)
			}
			s.exports[nbr][p] = d
		}
	}
}

// Recover re-seeds the speaker's originated-prefix set from a recovered
// node's machine state, so a speaker rebuilt in a fresh process after a
// crash keeps originating (and exporting) the prefixes its pre-crash
// incarnation announced. Export bookkeeping is left empty and rebuilds
// through subsequent Syncs — re-firing an export a neighbor already
// believes is idempotent at the tuple level.
func (s *Speaker) Recover(node *core.Node) {
	m := node.Machine.(*dlog.Machine)
	for _, t := range m.TuplesOf("origin") {
		if t.Args[0].Node() == s.Self {
			s.origins[t.Args[1].Str] = true
		}
	}
}

// PreferVia installs a preference for routes whose first hop is the given
// neighbor (a local-pref override); other candidates fall back to the
// default ranking. Used to build policy scenarios such as BadGadget.
func (s *Speaker) PreferVia(via types.NodeID) {
	s.Prefer = func(prefix string, a, b route) bool {
		av, bv := a.from == via, b.from == via
		if av != bv {
			return av
		}
		saved := s.Prefer
		s.Prefer = nil
		better := s.better(prefix, a, b)
		s.Prefer = saved
		return better
	}
}

// best runs the decision process for one prefix.
func (s *Speaker) best(prefix string) (route, bool) {
	cands := s.rib[prefix]
	if len(cands) == 0 {
		return route{}, false
	}
	froms := make([]string, 0, len(cands))
	for f := range cands {
		froms = append(froms, string(f))
	}
	sort.Strings(froms)
	best := cands[types.NodeID(froms[0])]
	for _, f := range froms[1:] {
		c := cands[types.NodeID(f)]
		if s.better(prefix, c, best) {
			best = c
		}
	}
	return best, true
}

func (s *Speaker) better(prefix string, a, b route) bool {
	if s.Prefer != nil {
		return s.Prefer(prefix, a, b)
	}
	// Default decision process: relationship preference (customer ≈
	// sibling > peer > provider), then path length, then lowest neighbor.
	ar, br := relRank(a.rel), relRank(b.rel)
	if ar != br {
		return ar < br
	}
	al, bl := len(strings.Fields(a.path)), len(strings.Fields(b.path))
	if al != bl {
		return al < bl
	}
	return a.from < b.from
}

func relRank(r Rel) int {
	switch r {
	case Customer, Sibling:
		return 0
	case Peer:
		return 1
	default:
		return 2
	}
}

func (s *Speaker) loops(path string) bool { return onPath(path, s.Self) }

func onPath(path string, n types.NodeID) bool {
	for _, hop := range strings.Fields(path) {
		if hop == string(n) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Deployment.

// ASLink declares a relationship between two networks: A is B's <Rel>.
type ASLink struct {
	A, B types.NodeID
	// RelAB is A's view of B (e.g. Provider means B is A's provider).
	RelAB Rel
}

// invert flips the relationship to the other side's view.
func invert(r Rel) Rel {
	switch r {
	case Customer:
		return Provider
	case Provider:
		return Customer
	case Sibling:
		return Sibling
	default:
		return Peer
	}
}

// Relations expands a link list into each network's view of its neighbors
// (both directions, relationships inverted for the far side) — the
// neighbor maps NewSpeaker takes.
func Relations(links []ASLink) map[types.NodeID]map[types.NodeID]Rel {
	rels := map[types.NodeID]map[types.NodeID]Rel{}
	addRel := func(a, b types.NodeID, r Rel) {
		if rels[a] == nil {
			rels[a] = make(map[types.NodeID]Rel)
		}
		rels[a][b] = r
	}
	for _, l := range links {
		addRel(l.A, l.B, l.RelAB)
		addRel(l.B, l.A, invert(l.RelAB))
	}
	return rels
}

// Trace sizes a RouteViews-style update trace (workload.BGPTrace over the
// deployment's stubs — the networks whose every neighbor is a provider, in
// name order): update i of Updates fires at Start + i*Span/Updates on the
// stub it originates from, as an announcement or a withdrawal.
type Trace struct {
	Seed                int64
	Updates, PrefixPool int
	Start, Span         types.Time
}

// New is the Quagga workload over links: one speaker per network,
// reconciling every syncEvery until duration (the paper's Quagga reacts to
// updates; our speaker polls the proxy state), driven by trace when that is
// non-nil. The speakers are returned beside it: scenario programs set
// policies (PreferVia, ExportFilter) and originate prefixes through them.
func New(links []ASLink, syncEvery, duration types.Time, trace *Trace) (*workload.Workload, map[types.NodeID]*Speaker) {
	rels := Relations(links)
	names := make([]types.NodeID, 0, len(rels))
	for n := range rels {
		names = append(names, n)
	}
	slices.Sort(names)
	speakers := make(map[types.NodeID]*Speaker, len(names))
	w := &workload.Workload{
		Name: "quagga", Nodes: names, Factory: Factory(), Horizon: duration,
		// A fresh process over a recovered log: re-seed the speaker's
		// origins from the machine so a node that crashed mid-convergence
		// keeps originating its prefixes.
		Recovered:        func(n *core.Node) { speakers[n.ID].Recover(n) },
		ConfigureQuerier: func(q *core.Querier) { q.Auditor.Builder.MaybeValidator = ValidateExport },
	}
	var stubs []types.NodeID
	for i, n := range names {
		w.KeySeeds = append(w.KeySeeds, int64(1000+i))
		sp := NewSpeaker(n, rels[n])
		speakers[n] = sp
		if isStub(rels[n]) {
			stubs = append(stubs, n)
		}
		// Staggered so the networks do not reconcile in lockstep.
		offset := types.Time(int64(i)) * syncEvery / types.Time(len(names)+1)
		w.Every(n, offset+syncEvery, syncEvery, duration, sp.Sync)
	}
	if trace != nil {
		updates := workload.BGPTrace(trace.Seed, trace.Updates, len(stubs), trace.PrefixPool)
		for i, u := range updates {
			sp := speakers[stubs[u.Origin]]
			at := trace.Start + types.Time(int64(i))*trace.Span/types.Time(len(updates))
			if u.Withdraw {
				w.At(sp.Self, at, func(n *core.Node) { sp.Withdraw(n, u.Prefix) })
			} else {
				w.At(sp.Self, at, func(n *core.Node) { sp.Announce(n, u.Prefix) })
			}
		}
	}
	return w, speakers
}

// Deploy runs New's trace-free workload on net. It exists only because
// bench/workloads.go calls it and bench/ was frozen when New replaced it;
// it goes when bench/ is next opened.
func Deploy(net *simnet.Net, links []ASLink, syncEvery, duration types.Time) (map[types.NodeID]*Speaker, error) {
	w, speakers := New(links, syncEvery, duration, nil)
	return speakers, net.Deploy(w)
}

func isStub(neighbors map[types.NodeID]Rel) bool {
	for _, r := range neighbors {
		if r != Provider {
			return false
		}
	}
	return true
}

// Factory returns the replay machine factory for the BGP proxy.
func Factory() types.MachineFactory { return dlog.Factory(Program()) }

// DefaultTopology is a 10-network topology with two tier-1 peers, two
// regional providers, and six stubs — the shape of the paper's Quagga
// setup (10 ASes with a mix of tier-1 and small stub ASes, §7.1).
func DefaultTopology() []ASLink {
	t1a, t1b := types.NodeID("as10"), types.NodeID("as20")
	r1, r2 := types.NodeID("as30"), types.NodeID("as40")
	return []ASLink{
		{A: t1a, B: t1b, RelAB: Peer},
		{A: r1, B: t1a, RelAB: Provider}, // t1a is r1's provider
		{A: r1, B: t1b, RelAB: Provider},
		{A: r2, B: t1a, RelAB: Provider},
		{A: r2, B: t1b, RelAB: Provider},
		{A: "as51", B: r1, RelAB: Provider},
		{A: "as52", B: r1, RelAB: Provider},
		{A: "as53", B: r1, RelAB: Provider},
		{A: "as61", B: r2, RelAB: Provider},
		{A: "as62", B: r2, RelAB: Provider},
		{A: "as63", B: r2, RelAB: Provider},
		{A: "as51", B: r2, RelAB: Provider}, // multihomed stub
	}
}

// Prefix names the i-th synthetic prefix.
func Prefix(i int) string { return fmt.Sprintf("10.%d.%d.0/24", (i/256)%256, i%256) }
