// Package dlog implements the declarative substrate of the paper's system
// model (§3.1): node state as tuples, behavior as derivation rules, and a
// deterministic per-node state machine that evaluates them incrementally.
// It plays the role RapidNet/ExSPAN's NDlog engine plays for SNooPy:
// provenance is *inferred* from rule evaluation (§5.3, method #1).
//
// Rules are written in localized form: every body atom binds the same
// anchor location variable (the evaluating node). The head's location may
// differ; such a tuple appears at the anchor and is shipped (+τ/−τ) to its
// home node, which believes it — exactly the structure of Figure 2, where
// router b derives cost(@c,d,b,5) locally and sends it to c.
//
// Three rule kinds cover the paper's needs:
//
//   - derive rules (the default): classic ref-counted derivations that hold
//     while their body holds, with optional min aggregation;
//   - event rules: the head is a transient event tuple that fires and
//     immediately retracts (used for protocol messages such as Chord
//     lookups);
//   - store rules: event-condition-action rules whose head is inserted as a
//     persistent fact when the body fires, optionally replacing an existing
//     fact with the same key prefix (which produces the §3.4 constraint
//     edge between the old tuple's disappearance and the new one's
//     appearance).
package dlog

import (
	"fmt"

	"repro/internal/types"
)

// Term is a rule argument: a variable or a constant.
type Term struct {
	IsVar bool
	Var   string
	Val   types.Value
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// C returns a constant term.
func C(v types.Value) Term { return Term{Val: v} }

func (t Term) String() string {
	if t.IsVar {
		return t.Var
	}
	return t.Val.String()
}

// Atom is a relation applied to terms, e.g. link(@X, Y, K).
type Atom struct {
	Rel   string
	Terms []Term
}

// A builds an atom.
func A(rel string, terms ...Term) Atom { return Atom{Rel: rel, Terms: terms} }

func (a Atom) String() string {
	s := a.Rel + "("
	for i, t := range a.Terms {
		if i > 0 {
			s += ","
		}
		s += t.String()
	}
	return s + ")"
}

// Func is a pure, deterministic builtin function over values. Boolean
// builtins return I(1) for true and I(0) for false.
type Func func(args []types.Value) types.Value

// Cond is a condition over bound variables: the builtin Fn applied to Args
// must return a non-zero integer (or, with Negate, zero).
type Cond struct {
	Fn     string
	Args   []Term
	Negate bool
}

// Assign binds Var to the result of the builtin Fn applied to Args.
type Assign struct {
	Var  string
	Fn   string
	Args []Term
}

// Agg declares a min aggregation on a derive or event rule. Over names the
// variable being minimised; GroupBy lists the variables forming the group.
// The rule head is built from the binding of each *witness* (a body match
// achieving the minimum), so the head may mention witness variables beyond
// the group (e.g. bestSucc(@N,S,SID) grouped by N).
type Agg struct {
	Over    string
	GroupBy []string
}

// ActionKind discriminates rule kinds.
type ActionKind uint8

// Rule kinds.
const (
	ActDerive ActionKind = iota
	ActEvent
	ActStore
)

func (k ActionKind) String() string {
	switch k {
	case ActDerive:
		return "derive"
	case ActEvent:
		return "event"
	case ActStore:
		return "store"
	default:
		return fmt.Sprintf("action(%d)", k)
	}
}

// Rule is one derivation rule.
type Rule struct {
	Name    string
	Action  ActionKind
	Head    Atom
	Body    []Atom
	Conds   []Cond
	Assigns []Assign
	Agg     *Agg
	// ReplaceKey, for store rules: the number of leading head arguments
	// that form the replacement key. A firing first deletes any stored
	// fact with the same rel and key prefix, and links the old fact's
	// disappearance into the new fact's provenance (§3.4).
	ReplaceKey int
}

// Relation declares a relation: its name, arity, and whether its tuples are
// transient events.
type Relation struct {
	Name  string
	Arity int
	Event bool
}

// Program is a compiled set of relations, rules, and builtins shared by all
// nodes running the same protocol. Programs are immutable after Compile.
//
// Declaration helpers (Relation, MustFunc, MustAddRule) do not panic on a
// bad definition: the first error is recorded and reported by Err, and
// every machine built from the program carries it, so a broken protocol
// definition surfaces as an error at deployment or evaluation time instead
// of crashing the process.
type Program struct {
	relations map[string]Relation
	rules     []*compiledRule
	funcs     map[string]Func
	err       error // first declaration error, reported by Err
}

// Err returns the first error recorded while declaring relations, builtins,
// or rules (nil for a well-formed program).
func (p *Program) Err() error { return p.err }

// setErr records the first declaration error.
func (p *Program) setErr(err error) {
	if p.err == nil {
		p.err = err
	}
}

type compiledRule struct {
	*Rule
	// bodyOrder lists body atom indices in evaluation order: the event atom
	// (if any) first, then the rest in declaration order.
	bodyOrder []int
	eventAtom int // index into Body of the event atom, or -1

	// Positional binding plan: every variable in the rule is assigned an
	// integer slot at compile time, so evaluation uses flat value slices
	// instead of map[string]Value bindings (and backtracks via a trail
	// instead of copying the map at every join level).
	nvars         int
	slots         map[string]int
	cBody         []cAtom // per body atom, parallel to Body
	cHead         cAtom
	cAssigns      []cCall
	cConds        []cCall
	aggOverSlot   int   // slot of Agg.Over, or -1
	aggGroupSlots []int // slots of Agg.GroupBy
}

// cTerm is a compiled term: a variable slot (slot >= 0) or a constant.
type cTerm struct {
	slot int
	val  types.Value
}

// cAtom is a body or head atom with its terms compiled to slots.
type cAtom []cTerm

// cCall is a compiled assignment or condition: a resolved builtin applied to
// compiled terms. For assignments, slot is the destination; for conditions,
// negate flips the truth test.
type cCall struct {
	fn     Func
	args   []cTerm
	slot   int
	negate bool
}

// compileSlots builds the positional binding plan for a validated rule.
// Slot order follows first appearance (body in declaration order, then
// assigns), which is arbitrary but fixed.
func (p *Program) compileSlots(cr *compiledRule) {
	r := cr.Rule
	cr.slots = make(map[string]int)
	slotOf := func(v string) int {
		s, ok := cr.slots[v]
		if !ok {
			s = cr.nvars
			cr.slots[v] = s
			cr.nvars++
		}
		return s
	}
	compileTerms := func(terms []Term) []cTerm {
		out := make([]cTerm, len(terms))
		for i, t := range terms {
			if t.IsVar {
				out[i] = cTerm{slot: slotOf(t.Var)}
			} else {
				out[i] = cTerm{slot: -1, val: t.Val}
			}
		}
		return out
	}
	cr.cBody = make([]cAtom, len(r.Body))
	for i, a := range r.Body {
		cr.cBody[i] = compileTerms(a.Terms)
	}
	for _, as := range r.Assigns {
		cr.cAssigns = append(cr.cAssigns, cCall{
			fn:   p.funcs[as.Fn],
			args: compileTerms(as.Args),
			slot: slotOf(as.Var),
		})
	}
	for _, c := range r.Conds {
		cr.cConds = append(cr.cConds, cCall{
			fn:     p.funcs[c.Fn],
			args:   compileTerms(c.Args),
			slot:   -1,
			negate: c.Negate,
		})
	}
	cr.aggOverSlot = -1
	if r.Agg != nil {
		cr.aggOverSlot = slotOf(r.Agg.Over)
		cr.aggGroupSlots = make([]int, len(r.Agg.GroupBy))
		for i, g := range r.Agg.GroupBy {
			cr.aggGroupSlots[i] = slotOf(g)
		}
	}
	cr.cHead = compileTerms(r.Head.Terms)
}

// NewProgram creates an empty program with the standard builtins
// registered: add, ne, lt, ge.
func NewProgram() *Program {
	p := &Program{
		relations: make(map[string]Relation),
		funcs:     make(map[string]Func),
	}
	b := func(v bool) types.Value {
		if v {
			return types.I(1)
		}
		return types.I(0)
	}
	p.MustFunc("add", func(a []types.Value) types.Value { return types.I(a[0].Int + a[1].Int) })
	p.MustFunc("ne", func(a []types.Value) types.Value { return b(a[0] != a[1]) })
	p.MustFunc("lt", func(a []types.Value) types.Value { return b(a[0].Less(a[1])) })
	p.MustFunc("ge", func(a []types.Value) types.Value { return b(!a[0].Less(a[1])) })
	return p
}

// Relation declares a relation. Redeclaration with a different shape is
// recorded as a program error (see Err).
func (p *Program) Relation(name string, arity int, event bool) {
	if r, ok := p.relations[name]; ok && (r.Arity != arity || r.Event != event) {
		p.setErr(fmt.Errorf("dlog: relation %s redeclared with different shape", name))
		return
	}
	p.relations[name] = Relation{Name: name, Arity: arity, Event: event}
}

// MustFunc registers a builtin function. Registering the same name twice is
// recorded as a program error (see Err).
func (p *Program) MustFunc(name string, fn Func) {
	if _, ok := p.funcs[name]; ok {
		p.setErr(fmt.Errorf("dlog: builtin %s registered twice", name))
		return
	}
	p.funcs[name] = fn
}

// IsEvent reports whether rel is a declared event relation.
func (p *Program) IsEvent(rel string) bool { return p.relations[rel].Event }

// Rules returns the names of all compiled rules, in order.
func (p *Program) Rules() []string {
	out := make([]string, len(p.rules))
	for i, r := range p.rules {
		out[i] = r.Name
	}
	return out
}

// AddRule validates and compiles one rule into the program.
func (p *Program) AddRule(r Rule) error {
	cr := &compiledRule{Rule: &r, eventAtom: -1}
	if r.Name == "" {
		return fmt.Errorf("dlog: rule without a name")
	}
	if len(r.Body) == 0 {
		return fmt.Errorf("dlog: rule %s has an empty body", r.Name)
	}
	headRel, ok := p.relations[r.Head.Rel]
	if !ok {
		return fmt.Errorf("dlog: rule %s: undeclared head relation %s", r.Name, r.Head.Rel)
	}
	if len(r.Head.Terms) != headRel.Arity {
		return fmt.Errorf("dlog: rule %s: head arity %d, declared %d", r.Name, len(r.Head.Terms), headRel.Arity)
	}
	switch r.Action {
	case ActEvent:
		if !headRel.Event {
			return fmt.Errorf("dlog: rule %s: event rule head %s is not an event relation", r.Name, r.Head.Rel)
		}
	case ActDerive, ActStore:
		if headRel.Event {
			return fmt.Errorf("dlog: rule %s: %s rule head %s is an event relation", r.Name, r.Action, r.Head.Rel)
		}
	}
	if r.Agg != nil && r.Action != ActDerive && r.Action != ActEvent {
		return fmt.Errorf("dlog: rule %s: aggregation requires a derive or event rule", r.Name)
	}
	if r.ReplaceKey > 0 && r.Action != ActStore {
		return fmt.Errorf("dlog: rule %s: ReplaceKey requires a store rule", r.Name)
	}
	if r.ReplaceKey > len(r.Head.Terms) {
		return fmt.Errorf("dlog: rule %s: ReplaceKey %d exceeds head arity", r.Name, r.ReplaceKey)
	}

	bound := map[string]bool{}
	events := 0
	for i, a := range r.Body {
		rel, ok := p.relations[a.Rel]
		if !ok {
			return fmt.Errorf("dlog: rule %s: undeclared body relation %s", r.Name, a.Rel)
		}
		if len(a.Terms) != rel.Arity {
			return fmt.Errorf("dlog: rule %s: body atom %s arity %d, declared %d", r.Name, a.Rel, len(a.Terms), rel.Arity)
		}
		if rel.Event {
			events++
			cr.eventAtom = i
			if r.Action == ActDerive {
				return fmt.Errorf("dlog: rule %s: derive rules may not match event relations (use event/store rules)", r.Name)
			}
		}
		for _, t := range a.Terms {
			if t.IsVar {
				bound[t.Var] = true
			}
		}
	}
	if events > 1 {
		return fmt.Errorf("dlog: rule %s: at most one event atom per body", r.Name)
	}
	for _, as := range r.Assigns {
		if _, ok := p.funcs[as.Fn]; !ok {
			return fmt.Errorf("dlog: rule %s: unknown builtin %s", r.Name, as.Fn)
		}
		for _, t := range as.Args {
			if t.IsVar && !bound[t.Var] {
				return fmt.Errorf("dlog: rule %s: assign uses unbound variable %s", r.Name, t.Var)
			}
		}
		bound[as.Var] = true
	}
	for _, c := range r.Conds {
		if _, ok := p.funcs[c.Fn]; !ok {
			return fmt.Errorf("dlog: rule %s: unknown builtin %s", r.Name, c.Fn)
		}
		for _, t := range c.Args {
			if t.IsVar && !bound[t.Var] {
				return fmt.Errorf("dlog: rule %s: condition uses unbound variable %s", r.Name, t.Var)
			}
		}
	}
	for _, t := range r.Head.Terms {
		if t.IsVar && !bound[t.Var] {
			return fmt.Errorf("dlog: rule %s: head uses unbound variable %s", r.Name, t.Var)
		}
	}
	if r.Agg != nil {
		if !bound[r.Agg.Over] {
			return fmt.Errorf("dlog: rule %s: aggregate over unbound variable %s", r.Name, r.Agg.Over)
		}
		for _, g := range r.Agg.GroupBy {
			if !bound[g] {
				return fmt.Errorf("dlog: rule %s: group-by unbound variable %s", r.Name, g)
			}
		}
	}

	// Evaluation order: event atom first (rules with an event atom are only
	// triggered by that event), then the rest in declaration order.
	if cr.eventAtom >= 0 {
		cr.bodyOrder = append(cr.bodyOrder, cr.eventAtom)
	}
	for i := range r.Body {
		if i != cr.eventAtom {
			cr.bodyOrder = append(cr.bodyOrder, i)
		}
	}
	p.compileSlots(cr)
	p.rules = append(p.rules, cr)
	return nil
}

// MustAddRule is AddRule with the error deferred: a bad rule is recorded in
// the program (see Err) and skipped instead of panicking, so a broken
// protocol definition is surfaced by the deployment or the machines built
// from the program rather than taking down the process.
func (p *Program) MustAddRule(r Rule) {
	if err := p.AddRule(r); err != nil {
		p.setErr(err)
	}
}
