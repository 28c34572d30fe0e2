package dlog

import (
	"iter"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/types"
	"repro/internal/wire"
)

// supportKind discriminates why a fact holds.
type supportKind uint8

const (
	supBase     supportKind = iota // inserted as a base tuple
	supBelieved                    // believed from a remote node (+τ received)
	supChoice                      // stored by a store rule or a maybe firing
	supDerive                      // derived by a derive rule
)

// support is one reason a fact holds. A fact exists while it has at least
// one support; each support corresponds to one derive vertex in the
// provenance graph.
type support struct {
	kind   supportKind
	rule   string
	origin types.NodeID
	body   []types.Tuple
	since  types.Time
	// noDeps marks supports whose lifetime is managed outside the generic
	// dependency cascade: choice supports (persist until deleted) and
	// aggregate-installed supports (managed by group recomputation).
	noDeps bool
}

func (s support) key() string {
	n := 4 + len(s.rule) + len(s.origin)
	for _, b := range s.body {
		n += 1 + len(b.Key())
	}
	var sb strings.Builder
	sb.Grow(n)
	// kind is a single digit (0..3); the format matches the historical
	// fmt.Sprintf("%d|%s|%s", ...) byte for byte, because support-key order
	// determines snapshot encoding order and thus checkpoint hashes.
	sb.WriteByte('0' + byte(s.kind))
	sb.WriteByte('|')
	sb.WriteString(s.rule)
	sb.WriteByte('|')
	sb.WriteString(string(s.origin))
	for _, b := range s.body {
		sb.WriteByte('|')
		sb.WriteString(b.Key())
	}
	return sb.String()
}

// supportEntry is one support of a fact together with its interned key ID.
type supportEntry struct {
	sid sid
	sup support
}

// fact is one stored tuple plus its supports, kept sorted by canonical
// support-key order (the order snapshot encoding and removal scans need).
type fact struct {
	id       fid
	tuple    types.Tuple
	outbound bool // location attribute names another node; shipped, not joined
	supports []supportEntry
	appeared types.Time
}

func (f *fact) active() bool { return len(f.supports) > 0 }

// findSupport returns the index of sid in f.supports (sorted by support key
// under in), or (insertion point, false).
func (f *fact) findSupport(in *intern, s sid) (int, bool) {
	return slices.BinarySearchFunc(f.supports, s, func(e supportEntry, target sid) int {
		return strings.Compare(in.key(e.sid), in.key(target))
	})
}

// dep records that a body fact is referenced by a support of a head fact.
type dep struct {
	head fid
	sup  sid
}

// aggMatch is one body match of an aggregation rule.
type aggMatch struct {
	body  []types.Tuple
	head  types.Tuple // head built from this witness's binding
	group string
	over  types.Value
}

// aggState tracks the materialized body matches of one aggregation rule.
// Matches are identified by their body fact-ID list (encoded as a compact
// byte string); identity sets are iterated in arbitrary-but-deterministic
// sorted order, which is safe because no output order depends on it.
type aggState struct {
	matches map[string]*aggMatch
	byGroup map[string]map[string]bool
	byFact  map[fid]map[string]bool
	// installed maps group -> head tuple ID -> support-key IDs currently
	// installed for that group, in canonical support-key order.
	installed map[string]map[fid][]sid
}

func newAggState() *aggState {
	return &aggState{
		matches:   make(map[string]*aggMatch),
		byGroup:   make(map[string]map[string]bool),
		byFact:    make(map[fid]map[string]bool),
		installed: make(map[string]map[fid][]sid),
	}
}

// Machine is the deterministic dlog state machine for one node: the Ai of
// Appendix A.2, with provenance-annotated outputs. It implements
// types.Machine.
//
// All fact and support bookkeeping is keyed by dense interned IDs (see
// intern in index.go) rather than canonical strings: the canonical byte
// forms are computed once per distinct tuple or support and every subsequent
// lookup hashes a machine word instead of a string. Deterministic iteration
// still follows canonical string order — the intern table keeps the strings
// for comparison — so outputs, snapshot bytes, and aggregate tie-breaks are
// bit-identical to the string-keyed evaluator.
//
// The intern tables are append-only: a tuple or support seen once keeps its
// ID (and key string) for the machine's lifetime, even after the fact is
// retracted, so memory grows with the number of historically distinct
// tuples rather than with live state. That is the usual workload shape
// here; Restore resets the tables along with the rest of the state.
type Machine struct {
	prog *Program
	self types.NodeID

	tups  *intern // canonical tuple key -> fid
	sups  *intern // canonical support key -> sid
	facts []*fact // fid -> fact, nil when absent; grown lazily
	rels  map[string]*relStore
	deps  map[fid]map[dep]bool
	aggs  map[int]*aggState // rule index -> state

	seqs map[types.NodeID]uint64
	now  types.Time
	out  []types.Output
	// collecting, when non-nil, buffers aggregated event-rule matches
	// instead of firing them.
	collecting *[]evMatch
	// quiet suppresses outputs (used while rebuilding state from a
	// checkpoint snapshot).
	quiet bool
}

// NewMachine creates a machine for node self running prog.
func NewMachine(prog *Program, self types.NodeID) *Machine {
	m := &Machine{
		prog: prog,
		self: self,
		tups: newIntern(),
		sups: newIntern(),
		rels: make(map[string]*relStore),
		deps: make(map[fid]map[dep]bool),
		aggs: make(map[int]*aggState),
		seqs: make(map[types.NodeID]uint64),
	}
	for i, r := range prog.rules {
		if r.Agg != nil {
			m.aggs[i] = newAggState()
		}
	}
	return m
}

// Factory returns a MachineFactory for prog.
func Factory(prog *Program) types.MachineFactory {
	return func(self types.NodeID) types.Machine { return NewMachine(prog, self) }
}

// Err surfaces the program's declaration error, if any: a machine built
// from a broken protocol definition evaluates only the rules that compiled,
// and callers (deployments, replay harnesses) should check Err before
// trusting its outputs.
func (m *Machine) Err() error { return m.prog.Err() }

// Step implements types.Machine.
func (m *Machine) Step(ev types.Event) []types.Output {
	m.now = ev.Time
	m.out = nil
	switch ev.Kind {
	case types.EvIns:
		if m.prog.IsEvent(ev.Tuple.Rel) {
			// A transient event injected by the driver (e.g. a timer tick):
			// it fires rules but is never stored.
			m.matchEvent(ev.Tuple)
			break
		}
		if ev.MaybeRule != "" {
			m.addSupport(ev.Tuple, support{kind: supChoice, rule: ev.MaybeRule,
				body: ev.MaybeBody, since: m.now, noDeps: true}, ev.Replaces)
		} else {
			m.addSupport(ev.Tuple, support{kind: supBase, since: m.now, noDeps: true}, ev.Replaces)
		}
	case types.EvDel:
		if m.prog.IsEvent(ev.Tuple.Rel) {
			break // the matching ins already fired the rules
		}
		m.removeStoredSupports(ev.Tuple)
	case types.EvRcv:
		msg := ev.Msg
		switch msg.Pol {
		case types.PolAppear:
			m.addSupport(msg.Tuple, support{kind: supBelieved, origin: msg.Src,
				since: m.now, noDeps: true}, nil)
		case types.PolDisappear:
			if id, ok := m.tups.lookup(msg.Tuple.Key()); ok {
				if s, ok := m.sups.lookup(support{kind: supBelieved, origin: msg.Src}.key()); ok {
					m.removeSupport(id, s, "", nil)
				}
			}
		case types.PolBoth:
			// Believed transient event: fires rules, never stored.
			m.matchEvent(msg.Tuple)
		}
	}
	outs := m.out
	m.out = nil
	return outs
}

// emit appends an output unless the machine is rebuilding quietly.
func (m *Machine) emit(o types.Output) {
	if !m.quiet {
		m.out = append(m.out, o)
	}
}

// ---------------------------------------------------------------------------
// Fact and support maintenance.

// factID interns the tuple's canonical key and grows the fact slice to cover
// the ID.
func (m *Machine) factID(tup types.Tuple) fid {
	id := m.tups.id(tup.Key())
	for int(id) >= len(m.facts) {
		m.facts = append(m.facts, nil)
	}
	return id
}

func (m *Machine) getFact(tup types.Tuple) *fact {
	if id, ok := m.tups.lookup(tup.Key()); ok {
		return m.facts[id]
	}
	return nil
}

func (m *Machine) addSupport(tup types.Tuple, sup support, replaces []types.Tuple) {
	// Store-rule replacement and maybe-rule replacement: retract the old
	// facts first so their disappearance can justify this appearance.
	for _, old := range replaces {
		m.removeStoredSupportsVia(old, sup.rule, sup.body)
	}

	id := m.factID(tup)
	f := m.facts[id]
	if f == nil {
		f = &fact{
			id:       id,
			tuple:    tup,
			outbound: tup.HasLoc() && tup.Loc() != m.self,
		}
		m.facts[id] = f
		rel := m.rels[tup.Rel]
		if rel == nil {
			rel = newRelStore(m.tups)
			m.rels[tup.Rel] = rel
		}
		rel.add(f)
	}
	s := m.sups.id(sup.key())
	i, dup := f.findSupport(m.sups, s)
	if dup {
		return // identical support already present
	}
	wasActive := f.active()
	f.supports = slices.Insert(f.supports, i, supportEntry{sid: s, sup: sup})
	if !sup.noDeps {
		for _, b := range sup.body {
			bid := m.factID(b)
			if m.deps[bid] == nil {
				m.deps[bid] = make(map[dep]bool)
			}
			m.deps[bid][dep{id, s}] = true
		}
	}
	// Believed facts produce no derive output: the GCA represents them with
	// believe vertices created from the rcv event itself.
	if sup.kind == supDerive || sup.kind == supChoice {
		m.emit(types.Output{Kind: types.OutDerive, Tuple: tup, Rule: sup.rule,
			Body: sup.body, First: !wasActive && sup.kind == supDerive, Replaces: replaces})
	}
	if !wasActive {
		f.appeared = m.now
		m.activate(f, sup)
	}
}

// activate runs the consequences of a fact coming into existence: shipping
// (outbound facts) or local rule matching.
func (m *Machine) activate(f *fact, via support) {
	_ = via
	if f.outbound {
		m.send(f.tuple, types.PolAppear)
		return
	}
	m.matchPersistent(f.tuple)
}

func (m *Machine) send(tup types.Tuple, pol types.Polarity) {
	dst := tup.Loc()
	m.seqs[dst]++
	m.emit(types.Output{Kind: types.OutSend, Msg: &types.Message{
		Src: m.self, Dst: dst, Pol: pol, Tuple: tup, SendTime: m.now, Seq: m.seqs[dst],
	}})
}

// removeStoredSupports removes all base and choice supports of tup (an
// EvDel, which only applies to stored facts).
func (m *Machine) removeStoredSupports(tup types.Tuple) {
	m.removeStoredSupportsVia(tup, "", nil)
}

func (m *Machine) removeStoredSupportsVia(tup types.Tuple, rule string, body []types.Tuple) {
	f := m.getFact(tup)
	if f == nil {
		return
	}
	// Snapshot the matching support IDs first: removal mutates the slice
	// (and may cascade). f.supports is already in canonical key order.
	var stored []sid
	for _, e := range f.supports {
		if e.sup.kind == supBase || e.sup.kind == supChoice {
			stored = append(stored, e.sid)
		}
	}
	for _, s := range stored {
		m.removeSupport(f.id, s, rule, body)
	}
}

// removeSupport removes one support; if attributedRule is non-empty the
// underive output is attributed to it (e.g. a store rule replacing the
// fact) instead of the support's own rule.
func (m *Machine) removeSupport(factID fid, supID sid, attributedRule string, attributedBody []types.Tuple) {
	if int(factID) >= len(m.facts) {
		return
	}
	f := m.facts[factID]
	if f == nil {
		return
	}
	i, ok := f.findSupport(m.sups, supID)
	if !ok {
		return
	}
	sup := f.supports[i].sup
	f.supports = slices.Delete(f.supports, i, i+1)
	if !sup.noDeps {
		for _, b := range sup.body {
			if bid, ok := m.tups.lookup(b.Key()); ok {
				delete(m.deps[bid], dep{factID, supID})
			}
		}
	}
	last := !f.active()
	rule, body := sup.rule, sup.body
	if attributedRule != "" {
		rule, body = attributedRule, attributedBody
	}
	if sup.kind == supDerive || sup.kind == supChoice {
		m.emit(types.Output{Kind: types.OutUnderive, Tuple: f.tuple, Rule: rule,
			Body: body, Last: last})
	}
	if last {
		m.deactivate(f)
	}
}

func (m *Machine) deactivate(f *fact) {
	m.facts[f.id] = nil
	if rel := m.rels[f.tuple.Rel]; rel != nil {
		rel.remove(f)
	}
	if f.outbound {
		m.send(f.tuple, types.PolDisappear)
		return
	}
	// Cascade: every support that referenced this fact dies.
	for _, d := range m.sortedDeps(m.deps[f.id]) {
		m.removeSupport(d.head, d.sup, "", nil)
	}
	delete(m.deps, f.id)
	// Aggregation rules lose the matches that used this fact.
	m.aggFactRemoved(f.id)
}

// ---------------------------------------------------------------------------
// Rule matching.

// matchPersistent fires all rules that can be triggered by the appearance
// of a persistent fact. Rules with an event atom cannot fire from a
// persistent delta (the event side can never be satisfied from the store).
func (m *Machine) matchPersistent(tup types.Tuple) {
	for ri, r := range m.prog.rules {
		if r.eventAtom >= 0 {
			continue
		}
		for pos, atom := range r.Body {
			if atom.Rel != tup.Rel {
				continue
			}
			m.joinFrom(ri, r, pos, tup)
		}
	}
}

// matchEvent fires all rules whose event atom matches the transient tuple.
func (m *Machine) matchEvent(tup types.Tuple) {
	for ri, r := range m.prog.rules {
		if r.eventAtom < 0 || r.Body[r.eventAtom].Rel != tup.Rel {
			continue
		}
		if r.Action == ActEvent && r.Agg != nil {
			// Aggregated event rule: all matches of this one event firing
			// are collected, then the aggregate winner fires (used for
			// closest-preceding-finger routing in Chord).
			saved := m.collecting
			var buf []evMatch
			m.collecting = &buf
			m.joinFrom(ri, r, r.eventAtom, tup)
			m.collecting = saved
			m.fireEventAgg(r, buf)
			continue
		}
		m.joinFrom(ri, r, r.eventAtom, tup)
	}
}

// evMatch is one buffered match of an aggregated event rule.
type evMatch struct {
	head  types.Tuple
	group string
	over  types.Value
	body  []types.Tuple
}

// fireEventAgg fires the aggregate winner of each group, breaking ties by
// head key then body identity so the choice is deterministic.
func (m *Machine) fireEventAgg(r *compiledRule, matches []evMatch) {
	groups := map[string][]evMatch{}
	var order []string
	for _, em := range matches {
		if _, ok := groups[em.group]; !ok {
			order = append(order, em.group)
		}
		groups[em.group] = append(groups[em.group], em)
	}
	sort.Strings(order)
	for _, g := range order {
		ms := groups[g]
		best := ms[0]
		for _, em := range ms[1:] {
			tie := em.over == best.over && em.head.Key() < best.head.Key()
			if em.over.Less(best.over) || tie {
				best = em
			}
		}
		m.fireEvent(best.head, r.Name, best.body)
	}
}

// joinFrom seeds the join with tup bound at body position pos and extends
// it across the remaining atoms, firing the rule for every complete match.
func (m *Machine) joinFrom(ri int, r *compiledRule, pos int, tup types.Tuple) {
	bf := newBindFrame(r.nvars)
	if !unifyC(r.cBody[pos], tup, bf) {
		return
	}
	matched := make([]types.Tuple, len(r.Body))
	matched[pos] = tup
	rest := make([]int, 0, len(r.bodyOrder))
	for _, i := range r.bodyOrder {
		if i != pos {
			rest = append(rest, i)
		}
	}
	m.joinRest(ri, r, rest, bf, matched)
}

func (m *Machine) joinRest(ri int, r *compiledRule, rest []int, bf *bindFrame, matched []types.Tuple) {
	if len(rest) == 0 {
		m.fire(ri, r, bf, matched)
		return
	}
	pos, tail := rest[0], rest[1:]
	rel := m.rels[r.Body[pos].Rel]
	if rel == nil {
		return
	}
	for _, id := range rel.candidates(m, r.cBody[pos], bf) {
		f := m.facts[id]
		if f == nil || !f.active() || f.outbound {
			continue
		}
		mark := bf.mark()
		if !unifyC(r.cBody[pos], f.tuple, bf) {
			continue
		}
		matched[pos] = f.tuple
		m.joinRest(ri, r, tail, bf, matched)
		matched[pos] = types.Tuple{}
		bf.undo(mark)
	}
}

// fire applies assignments and conditions, then executes the rule action.
// The binding frame is restored before returning so the caller's join can
// continue with the next candidate.
func (m *Machine) fire(ri int, r *compiledRule, bf *bindFrame, matched []types.Tuple) {
	mark := bf.mark()
	// Assignment destinations that were already bound (a rebinding) must be
	// restored by value; the trail only restores freshly bound slots.
	var savedSlots []int
	var savedVals []types.Value
	for _, as := range r.cAssigns {
		v := as.fn(evalTermsC(as.args, bf))
		if bf.set[as.slot] {
			savedSlots = append(savedSlots, as.slot)
			savedVals = append(savedVals, bf.vals[as.slot])
		} else {
			bf.set[as.slot] = true
			bf.trail = append(bf.trail, as.slot)
		}
		bf.vals[as.slot] = v
	}
	restore := func() {
		bf.undo(mark)
		for i := len(savedSlots) - 1; i >= 0; i-- {
			bf.vals[savedSlots[i]] = savedVals[i]
		}
	}
	for _, c := range r.cConds {
		v := c.fn(evalTermsC(c.args, bf))
		ok := v.Kind == types.KindInt && v.Int != 0
		if c.negate {
			ok = !ok
		}
		if !ok {
			restore()
			return
		}
	}
	body := append([]types.Tuple(nil), matched...)

	if r.Agg != nil {
		if r.Action == ActEvent {
			*m.collecting = append(*m.collecting, evMatch{
				head:  substituteC(r.Head.Rel, r.cHead, bf),
				group: groupKeyC(r, bf),
				over:  bf.vals[r.aggOverSlot],
				body:  body,
			})
			restore()
			return
		}
		m.aggAddMatch(ri, r, bf, body)
		restore()
		return
	}
	head := substituteC(r.Head.Rel, r.cHead, bf)
	restore()
	switch r.Action {
	case ActDerive:
		m.addSupport(head, support{kind: supDerive, rule: r.Name, body: body, since: m.now}, nil)
	case ActEvent:
		m.fireEvent(head, r.Name, body)
	case ActStore:
		m.storeFact(r, head, body)
	}
}

// fireEvent derives a transient event tuple: it appears, propagates (or is
// shipped as a one-shot PolBoth message), and immediately disappears.
func (m *Machine) fireEvent(head types.Tuple, rule string, body []types.Tuple) {
	m.emit(types.Output{Kind: types.OutDerive, Tuple: head, Rule: rule, Body: body, First: true})
	if head.HasLoc() && head.Loc() != m.self {
		dst := head.Loc()
		m.seqs[dst]++
		m.emit(types.Output{Kind: types.OutSend, Msg: &types.Message{
			Src: m.self, Dst: dst, Pol: types.PolBoth, Tuple: head, SendTime: m.now, Seq: m.seqs[dst],
		}})
	} else {
		m.matchEvent(head)
	}
	m.emit(types.Output{Kind: types.OutUnderive, Tuple: head, Rule: rule, Body: body, Last: true})
}

// storeFact persists head with a choice support, honoring ReplaceKey.
func (m *Machine) storeFact(r *compiledRule, head types.Tuple, body []types.Tuple) {
	var replaces []types.Tuple
	if r.ReplaceKey > 0 {
		if rel := m.rels[head.Rel]; rel != nil {
			// The replacement key covers Args[0], so the position-0 index
			// bucket holds every candidate, already in sorted key order.
			for _, id := range rel.ensureIdx(m, 0)[head.Args[0]] {
				f := m.facts[id]
				if f == nil || !f.active() || f.tuple.Equal(head) {
					continue
				}
				if samePrefix(f.tuple, head, r.ReplaceKey) {
					replaces = append(replaces, f.tuple)
				}
			}
		}
	}
	m.addSupport(head, support{kind: supChoice, rule: r.Name, body: body,
		since: m.now, noDeps: true}, replaces)
}

func samePrefix(a, b types.Tuple, n int) bool {
	if len(a.Args) < n || len(b.Args) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Aggregation.

// groupKeyC renders the group-by values as the group identity string (the
// same "v1|v2|" format the map-based evaluator produced, since group-key
// sort order breaks aggregate ties).
func groupKeyC(r *compiledRule, bf *bindFrame) string {
	var sb strings.Builder
	for _, s := range r.aggGroupSlots {
		sb.WriteString(bf.vals[s].String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// matchID renders a match identity from its body fact IDs. The encoding is
// only an identity (sets of match IDs are iterated in sorted order, but no
// output order depends on which order that is), so the compact little-endian
// byte form replaces the historical concatenated-key form.
func (m *Machine) matchID(body []types.Tuple) string {
	buf := make([]byte, 0, 4*len(body))
	for _, b := range body {
		id := m.factID(b)
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}

func (m *Machine) aggAddMatch(ri int, r *compiledRule, bf *bindFrame, body []types.Tuple) {
	st := m.aggs[ri]
	id := m.matchID(body)
	if _, ok := st.matches[id]; ok {
		return
	}
	am := &aggMatch{
		body:  body,
		group: groupKeyC(r, bf),
		over:  bf.vals[r.aggOverSlot],
		head:  substituteC(r.Head.Rel, r.cHead, bf),
	}
	st.matches[id] = am
	if st.byGroup[am.group] == nil {
		st.byGroup[am.group] = make(map[string]bool)
	}
	st.byGroup[am.group][id] = true
	for _, b := range body {
		bid := m.factID(b)
		if st.byFact[bid] == nil {
			st.byFact[bid] = make(map[string]bool)
		}
		st.byFact[bid][id] = true
	}
	m.aggRecompute(ri, r, am.group)
}

func (m *Machine) aggFactRemoved(factID fid) {
	for ri, r := range m.prog.rules {
		if r.Agg == nil {
			continue
		}
		st := m.aggs[ri]
		ids := st.byFact[factID]
		if len(ids) == 0 {
			continue
		}
		dirty := map[string]bool{}
		for _, id := range sortedBoolKeys(ids) {
			am := st.matches[id]
			delete(st.matches, id)
			delete(st.byGroup[am.group], id)
			for _, b := range am.body {
				if bid, ok := m.tups.lookup(b.Key()); ok {
					delete(st.byFact[bid], id)
				}
			}
			dirty[am.group] = true
		}
		delete(st.byFact, factID)
		for _, g := range sortedBoolKeys(dirty) {
			m.aggRecompute(ri, r, g)
		}
	}
}

// aggRecompute rebuilds the derived head facts for one group and installs
// the support diff (removals first, then additions, so that a changed
// aggregate value retracts the stale head before asserting the new one).
func (m *Machine) aggRecompute(ri int, r *compiledRule, group string) {
	st := m.aggs[ri]
	ids := sortedBoolKeys(st.byGroup[group])

	// Desired state: head tuple ID -> support ID -> support.
	desired := map[fid]map[sid]support{}
	heads := map[fid]types.Tuple{}
	addDesired := func(head types.Tuple, sup support) {
		hid := m.factID(head)
		if desired[hid] == nil {
			desired[hid] = make(map[sid]support)
		}
		desired[hid][m.sups.id(sup.key())] = sup
		heads[hid] = head
	}
	if len(ids) > 0 {
		best := st.matches[ids[0]].over
		for _, id := range ids[1:] {
			if v := st.matches[id].over; v.Less(best) {
				best = v
			}
		}
		for _, id := range ids {
			am := st.matches[id]
			if am.over != best {
				continue
			}
			addDesired(am.head, support{kind: supDerive, rule: r.Name, body: am.body, since: m.now, noDeps: true})
		}
	}

	current := st.installed[group]
	// Removals first, in canonical (head key, support key) order.
	for _, hid := range m.sortedFids(current) {
		for _, s := range current[hid] {
			if desired[hid] == nil || !hasKey(desired[hid], s) {
				m.removeSupport(hid, s, "", nil)
			}
		}
	}
	// Then additions.
	newInstalled := map[fid][]sid{}
	for _, hid := range m.sortedDesiredFids(desired) {
		for _, s := range m.sortedSids(desired[hid]) {
			sup := desired[hid][s]
			already := false
			for _, cur := range current[hid] {
				if cur == s {
					already = true
					break
				}
			}
			if !already {
				m.addSupport(heads[hid], sup, nil)
			}
			newInstalled[hid] = append(newInstalled[hid], s)
		}
	}
	if len(newInstalled) == 0 {
		delete(st.installed, group)
	} else {
		st.installed[group] = newInstalled
	}
}

// ---------------------------------------------------------------------------
// Introspection (used by checkpoints and the graph seeder).

// activeFactsSorted returns all present facts in canonical tuple-key order.
func (m *Machine) activeFactsSorted() []*fact {
	out := make([]*fact, 0, len(m.facts))
	for _, f := range m.facts {
		if f != nil {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return m.tups.key(out[i].id) < m.tups.key(out[j].id)
	})
	return out
}

// DumpExtants implements types.StateDumper: the stored facts in
// deterministic order, for checkpointing and replay seeding.
func (m *Machine) DumpExtants() []types.ExtantTuple {
	facts := m.activeFactsSorted()
	out := make([]types.ExtantTuple, 0, len(facts))
	for _, f := range facts {
		e := types.ExtantTuple{Tuple: f.tuple, Appeared: f.appeared}
		for _, se := range f.supports {
			if se.sup.kind == supBelieved {
				e.Believed = append(e.Believed, types.Belief{Origin: se.sup.origin, Since: se.sup.since})
			} else {
				e.Local = true
			}
		}
		out = append(out, e)
	}
	return out
}

// Lookup reports whether a tuple is currently stored and active.
func (m *Machine) Lookup(tup types.Tuple) bool {
	f := m.getFact(tup)
	return f != nil && f.active()
}

// Tuples yields the active, non-outbound tuples of one relation in
// canonical key order, straight from the relation's index: the machine must
// not step while a caller ranges over it.
func (m *Machine) Tuples(rel string) iter.Seq[types.Tuple] {
	return func(yield func(types.Tuple) bool) {
		r := m.rels[rel]
		if r == nil {
			return
		}
		for _, id := range r.keys {
			if f := m.facts[id]; f != nil && f.active() && !f.outbound && !yield(f.tuple) {
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Snapshot / Restore (types.Machine).

// Snapshot implements types.Machine: a canonical encoding of every stored
// fact with its supports, plus the per-destination sequence counters.
func (m *Machine) Snapshot() []byte {
	w := wire.NewWriter(1024)
	dsts := make([]string, 0, len(m.seqs))
	for d := range m.seqs {
		dsts = append(dsts, string(d))
	}
	sort.Strings(dsts)
	w.Uint(uint64(len(dsts)))
	for _, d := range dsts {
		w.String(d)
		w.Uint(m.seqs[types.NodeID(d)])
	}
	facts := m.activeFactsSorted()
	w.Uint(uint64(len(facts)))
	for _, f := range facts {
		f.tuple.MarshalWire(w)
		w.Int(int64(f.appeared))
		w.Uint(uint64(len(f.supports)))
		for _, se := range f.supports {
			s := se.sup
			w.Byte(byte(s.kind))
			w.String(s.rule)
			w.String(string(s.origin))
			w.Int(int64(s.since))
			w.Bool(s.noDeps)
			w.Uint(uint64(len(s.body)))
			for _, b := range s.body {
				b.MarshalWire(w)
			}
		}
	}
	return w.Bytes()
}

// Restore implements types.Machine.
func (m *Machine) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	m.tups = newIntern()
	m.sups = newIntern()
	m.facts = nil
	m.rels = make(map[string]*relStore)
	m.deps = make(map[fid]map[dep]bool)
	m.seqs = make(map[types.NodeID]uint64)
	for i := range m.prog.rules {
		if m.prog.rules[i].Agg != nil {
			m.aggs[i] = newAggState()
		}
	}
	nd := r.Uint()
	for i := uint64(0); i < nd; i++ {
		d := r.String()
		m.seqs[types.NodeID(d)] = r.Uint()
	}
	nf := r.Uint()
	if r.Err() != nil {
		return r.Err()
	}
	for i := uint64(0); i < nf; i++ {
		var tup types.Tuple
		if err := tup.UnmarshalWire(r); err != nil {
			return err
		}
		id := m.factID(tup)
		f := &fact{
			id:       id,
			tuple:    tup,
			outbound: tup.HasLoc() && tup.Loc() != m.self,
			appeared: types.Time(r.Int()),
		}
		ns := r.Uint()
		if r.Err() != nil {
			return r.Err()
		}
		for j := uint64(0); j < ns; j++ {
			s := support{
				kind:   supportKind(r.Byte()),
				rule:   r.String(),
				origin: types.NodeID(r.String()),
				since:  types.Time(r.Int()),
				noDeps: r.Bool(),
			}
			nb := r.Uint()
			if r.Err() != nil {
				return r.Err()
			}
			for k := uint64(0); k < nb; k++ {
				var b types.Tuple
				if err := b.UnmarshalWire(r); err != nil {
					return err
				}
				s.body = append(s.body, b)
			}
			sid := m.sups.id(s.key())
			if idx, dup := f.findSupport(m.sups, sid); !dup {
				f.supports = slices.Insert(f.supports, idx, supportEntry{sid: sid, sup: s})
			}
			if !s.noDeps {
				for _, b := range s.body {
					bid := m.factID(b)
					if m.deps[bid] == nil {
						m.deps[bid] = make(map[dep]bool)
					}
					m.deps[bid][dep{id, sid}] = true
				}
			}
		}
		m.facts[id] = f
		rel := m.rels[tup.Rel]
		if rel == nil {
			rel = newRelStore(m.tups)
			m.rels[tup.Rel] = rel
		}
		rel.add(f)
	}
	if err := r.Finish(); err != nil {
		return err
	}
	m.rebuildAgg()
	return nil
}

// rebuildAgg reconstructs aggregate match state by re-joining every
// aggregation rule over the restored store, quietly (no outputs).
func (m *Machine) rebuildAgg() {
	// A re-join that emits nothing must number nothing: the send counters
	// it advances for the sends it swallows are put back.
	m.quiet = true
	seqs := maps.Clone(m.seqs)
	defer func() { m.quiet, m.seqs = false, seqs }()
	for ri, r := range m.prog.rules {
		if r.Agg == nil {
			continue
		}
		m.aggs[ri] = newAggState()
		// Re-seed from every active fact of the first body relation.
		first := r.bodyOrder[0]
		rel := m.rels[r.Body[first].Rel]
		if rel == nil {
			continue
		}
		for _, id := range rel.sortedSnapshot() {
			f := m.facts[id]
			if f == nil || !f.active() || f.outbound {
				continue
			}
			m.joinFrom(ri, r, first, f.tuple)
		}
	}
}

// ---------------------------------------------------------------------------
// Deterministic iteration helpers. All orderings follow the canonical string
// forms held by the intern tables, matching the historical string-keyed maps.

func (m *Machine) sortedDeps(s map[dep]bool) []dep {
	out := make([]dep, 0, len(s))
	for d := range s {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		hi, hj := m.tups.key(out[i].head), m.tups.key(out[j].head)
		if hi != hj {
			return hi < hj
		}
		return m.sups.key(out[i].sup) < m.sups.key(out[j].sup)
	})
	return out
}

func sortedBoolKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (m *Machine) sortedFids(s map[fid][]sid) []fid {
	out := make([]fid, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return m.tups.key(out[i]) < m.tups.key(out[j]) })
	return out
}

func (m *Machine) sortedDesiredFids(s map[fid]map[sid]support) []fid {
	out := make([]fid, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return m.tups.key(out[i]) < m.tups.key(out[j]) })
	return out
}

func (m *Machine) sortedSids(s map[sid]support) []sid {
	out := make([]sid, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return m.sups.key(out[i]) < m.sups.key(out[j]) })
	return out
}

func hasKey(m map[sid]support, k sid) bool {
	_, ok := m[k]
	return ok
}
