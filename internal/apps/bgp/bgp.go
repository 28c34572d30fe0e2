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
	"slices"
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
		return !onPath(imported, host)
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

// decision is one poll's choice for one prefix: a local origin or the best
// imported route.
type decision struct {
	prefix     string
	origin     bool
	best       route
	exportable bool   // Gao–Rexford: only customer routes go to non-customers
	path       string // the exported path; built on first use, "" until then
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
	rib     map[string]map[types.NodeID]route  // prefix -> from -> route
	exports map[types.NodeID]map[string]string // neighbor -> prefix -> exported path

	// A poll's working state, kept for the next poll's reuse.
	prefixes  []string       // sorted
	decisions []decision     // one per prefix, in the same order
	offered   []bool         // per decision: does the neighbor being reconciled get it?
	nbrs      []types.NodeID // sorted neighbors
	keys      []string       // sorted prefixes exported to one neighbor
	froms     []types.NodeID // sorted candidates for one prefix
}

// NewSpeaker creates a speaker for self with the given neighbor relations.
func NewSpeaker(self types.NodeID, neighbors map[types.NodeID]Rel) *Speaker {
	return &Speaker{
		Self:      self,
		Neighbors: neighbors,
		origins:   make(map[string]bool),
		rib:       make(map[string]map[types.NodeID]route),
		exports:   make(map[types.NodeID]map[string]string),
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
//
// Every poll recomputes the RIB, each prefix's decision and each neighbor's
// exports in full. There is no skip when the machine looks unchanged: the
// policies (Prefer, ExportFilter, Neighbors) are public and change between
// polls, so the same imports can decide differently. What persists is the
// working state: the RIB's per-prefix maps are cleared and refilled, the
// slices keep their capacity, and the exported path and its tuples are
// built only for an export that changes, so a poll that changes nothing
// allocates next to nothing.
func (s *Speaker) Sync(node *core.Node) {
	s.loadRIB(node.Machine.(*dlog.Machine))
	s.decide()
	s.nbrs = s.nbrs[:0]
	for n := range s.Neighbors {
		s.nbrs = append(s.nbrs, n)
	}
	slices.Sort(s.nbrs)
	for _, nbr := range s.nbrs {
		s.reconcile(node, nbr, s.Neighbors[nbr])
	}
}

// loadRIB refills the RIB from the believed advRoute tuples; a prefix left
// without candidates leaves the RIB.
func (s *Speaker) loadRIB(m *dlog.Machine) {
	for _, cands := range s.rib {
		clear(cands)
	}
	for t := range m.Tuples("advRoute") {
		prefix, path, from := t.Args[1].Str, t.Args[2].Str, t.Args[3].Node()
		rel, ok := s.Neighbors[from]
		if !ok {
			continue // ignore strangers
		}
		if s.loops(path) {
			continue // loop prevention on import
		}
		cands := s.rib[prefix]
		if cands == nil {
			cands = make(map[types.NodeID]route)
			s.rib[prefix] = cands
		}
		cands[from] = route{path: path, from: from, rel: rel}
	}
	for prefix, cands := range s.rib {
		if len(cands) == 0 {
			delete(s.rib, prefix)
		}
	}
}

// decide runs the decision process once per prefix, originated or in the
// RIB, in prefix order.
func (s *Speaker) decide() {
	s.prefixes = s.prefixes[:0]
	for p := range s.origins {
		s.prefixes = append(s.prefixes, p)
	}
	for p := range s.rib {
		if !s.origins[p] {
			s.prefixes = append(s.prefixes, p)
		}
	}
	slices.Sort(s.prefixes)
	s.decisions = s.decisions[:0]
	for _, prefix := range s.prefixes {
		d := decision{prefix: prefix, origin: s.origins[prefix], exportable: true}
		if !d.origin {
			d.best = s.best(prefix)
			d.exportable = d.best.rel == Customer || d.best.rel == Sibling
		}
		s.decisions = append(s.decisions, d)
	}
}

// reconcile brings the exports to one neighbor in line with the decisions:
// withdrawals first, then announcements and replacements, each in prefix
// order.
func (s *Speaker) reconcile(node *core.Node, nbr types.NodeID, rel Rel) {
	s.offered = s.offered[:0]
	for i := range s.decisions {
		s.offered = append(s.offered, s.offers(nbr, rel, &s.decisions[i]))
	}
	cur := s.exports[nbr]
	s.keys = s.keys[:0]
	for p := range cur {
		s.keys = append(s.keys, p)
	}
	slices.Sort(s.keys)
	for _, p := range s.keys {
		i, found := slices.BinarySearch(s.prefixes, p)
		if !found || !s.offered[i] {
			node.DeleteMaybe(ExportRule, AdvRoute(nbr, p, cur[p], s.Self), nil)
			delete(cur, p)
		}
	}
	for i := range s.decisions {
		d := &s.decisions[i]
		if !s.offered[i] {
			continue
		}
		old, had := cur[d.prefix]
		if had && s.exportsAs(d, old) {
			continue
		}
		var replaces []types.Tuple
		if had {
			// Rules 2+3: one route per prefix per neighbor; the old
			// tuple's disappearance explains the new one (§3.4).
			replaces = []types.Tuple{AdvRoute(nbr, d.prefix, old, s.Self)}
		}
		path := s.exportPath(d)
		node.InsertMaybe(ExportRule, AdvRoute(nbr, d.prefix, path, s.Self), []types.Tuple{s.body(d)}, replaces)
		if cur == nil {
			cur = make(map[string]string)
			s.exports[nbr] = cur
		}
		cur[d.prefix] = path
	}
}

// offers applies the export policy: is nbr, related to us by rel, offered
// d's route?
func (s *Speaker) offers(nbr types.NodeID, rel Rel, d *decision) bool {
	if !d.exportable && rel != Customer {
		return false // valley-free export policy
	}
	// Poison reverse: don't offer a route through them. The exported path
	// is Self followed by the best route's path.
	if onPath(string(s.Self), nbr) || !d.origin && onPath(d.best.path, nbr) {
		return false
	}
	return s.ExportFilter == nil || !s.ExportFilter(nbr, d.prefix, s.exportPath(d))
}

// exportPath is the path d exports: Self, or Self prepended to the best
// route's path.
func (s *Speaker) exportPath(d *decision) string {
	if d.path == "" {
		if d.origin {
			d.path = string(s.Self)
		} else {
			d.path = string(s.Self) + " " + d.best.path
		}
	}
	return d.path
}

// exportsAs reports whether path is d's exported path, without building it.
func (s *Speaker) exportsAs(d *decision, path string) bool {
	self := string(s.Self)
	if d.origin {
		return path == self
	}
	return len(path) == len(self)+1+len(d.best.path) && path[:len(self)] == self &&
		path[len(self)] == ' ' && path[len(self)+1:] == d.best.path
}

// body is the tuple that explains d's export: the origin or the import.
func (s *Speaker) body(d *decision) types.Tuple {
	if d.origin {
		return Origin(s.Self, d.prefix)
	}
	return AdvRoute(s.Self, d.prefix, d.best.path, d.best.from)
}

// Recover re-seeds the speaker's originated-prefix set from a recovered
// node's machine state, so a speaker rebuilt in a fresh process after a
// crash keeps originating (and exporting) the prefixes its pre-crash
// incarnation announced. Export bookkeeping is left empty and rebuilds
// through subsequent Syncs — re-firing an export a neighbor already
// believes is idempotent at the tuple level.
func (s *Speaker) Recover(node *core.Node) {
	m := node.Machine.(*dlog.Machine)
	for t := range m.Tuples("origin") {
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

// best runs the decision process for one prefix of the RIB, over its
// candidates in neighbor order.
func (s *Speaker) best(prefix string) route {
	cands := s.rib[prefix]
	s.froms = s.froms[:0]
	for f := range cands {
		s.froms = append(s.froms, f)
	}
	slices.Sort(s.froms)
	best := cands[s.froms[0]]
	for _, f := range s.froms[1:] {
		if c := cands[f]; s.better(prefix, c, best) {
			best = c
		}
	}
	return best
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
	al, bl := pathLen(a.path), pathLen(b.path)
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

// onPath reports whether n is a hop of path. Paths are split exactly as
// strings.Fields splits them (a neighbor chooses the string), without
// building the slice.
func onPath(path string, n types.NodeID) bool {
	for hop := range strings.FieldsSeq(path) {
		if hop == string(n) {
			return true
		}
	}
	return false
}

// pathLen is len(strings.Fields(path)).
func pathLen(path string) int {
	n := 0
	for range strings.FieldsSeq(path) {
		n++
	}
	return n
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
