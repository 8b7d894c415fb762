package core

import (
	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/resource"
)

// This file is the property-grant fast path: a persistent, incrementally
// maintained image of the §5 bipartite matching problem, so a grant pays for
// what changed since the last one instead of rebuilding the world.
//
// The slow path (planInner's MatchingMode branch) scans three tables per
// grant — every instance, every soft lock, every active promise — clones
// each row, classifies the candidates, and reconstructs the slot list and
// the id→index translation before the matcher runs a single augmenting
// path. propMatcher keeps all of that alive between requests:
//
//   - slotList mirrors activePropertySlots: one entry per property-view
//     predicate of each active promise, with its current tentative
//     assignment (the matching seed) and a compiled form of its predicate;
//   - candList mirrors the matcher's right side: every hostable instance
//     (available, or tentatively held by an active property slot), with the
//     committed row, its tentative flag, and a per-instance cache of
//     predicate evaluations that survive across grants;
//   - byValue indexes candidates per property name and value, so Eq/In/And
//     shaped predicates hand the solver an exact candidate list and the
//     edge oracle never touches the rest of the world.
//
// Maintenance is the existing commit hook (candidates.go onCommit): the
// same touched-key triggers that keep the pre-filter counts fresh also keep
// these structures fresh.
//
// Consistency argument. The fast path may only run when its state provably
// equals what the transaction would read:
//
//  1. Freshness. The store admits one writer, and the planner runs inside
//     the transaction that holds it, so no other transaction has
//     uncommitted writes. The commit hook that maintains propMatcher runs
//     inside Commit, before the writer is released, so every earlier
//     committer has finished updating it. propMatcher therefore reflects
//     exactly the committed state of the instance, soft-lock and promise
//     tables.
//  2. Own writes. The gate requires tx.Writes() == 0, so the transaction's
//     view of those tables IS the committed state — there is nothing
//     propMatcher could fail to see. Releases applied earlier in the
//     request, a sweep that lapsed a promise, anything at all that dirtied
//     the transaction sends the request down the slow path.
//  3. Wall-clock expiry. The slow path filters slots through
//     activePromises (State == Active && now < Expires); propMatcher
//     ignores the wall clock by design (like the candidate index, see
//     candClassify). The two agree because sweepExpired runs first in every
//     request and processes every heap-due promise — the heap tracks every
//     granted promise, so an active-but-lapsed promise implies a due entry,
//     implies a release, implies Writes() > 0, implies slow path. A
//     transaction that reaches the gate clean has proven no active promise
//     is past its deadline.
//  4. Right-set equality. For an all-property, no-release request the slow
//     path's candidate set is: Available ∪ (Promised ∧ held by an active
//     property slot) — precisely candClassify's hostable verdict, i.e.
//     candList. Left side likewise: activePropertySlots minus nothing.
//     Identical graph ⇒ identical max-matching size ⇒ identical
//     accept/reject verdict (the solver may pick a different saturating
//     assignment, which §5 explicitly allows — tentative allocations are
//     the manager's to rearrange).
//
// propMatcher needs no mutex of its own: the commit hook writes it and the
// planners read it, and both run only while holding the store's writer.
type propMatcher struct {
	slots     map[string]*slotEntry // slot key -> entry
	slotList  []*slotEntry
	byPromise map[string][]*slotEntry // promise id -> its slot entries
	cands     map[string]*candEntry   // instance id -> entry
	candList  []*candEntry
	// byValue indexes candidates by property name and value — the entry
	// analogue of the candidate index's ByProp counts, used to serve
	// Eq/In/And predicates with exact candidate lists.
	byValue map[string]map[predicate.Value]map[string]*candEntry
}

// slotEntry is one active property-view predicate (a left vertex).
type slotEntry struct {
	key      string
	expr     predicate.Expr
	exprStr  string
	compiled compiledPred // nil when the shape needs full Eval
	assigned string       // current tentative instance ("" when none)
	sole     bool         // single-predicate promise (migratable cross-shard)
	pos      int          // index in slotList
}

// candEntry is one hostable instance (a right vertex). inst is the
// committed snapshot row — immutable, refreshed whenever the instance's
// contribution changes.
type candEntry struct {
	id        string
	inst      *resource.Instance
	tentative bool
	pos       int // index in candList
	// edges caches Eval verdicts for non-compilable predicates, keyed by
	// expression text; cleared whenever the instance's contribution
	// changes (any status or property transition re-classifies it).
	edges map[string]bool
}

func (pm *propMatcher) init() {
	pm.slots = make(map[string]*slotEntry)
	pm.slotList = nil
	pm.byPromise = make(map[string][]*slotEntry)
	pm.cands = make(map[string]*candEntry)
	pm.candList = nil
	pm.byValue = make(map[string]map[predicate.Value]map[string]*candEntry)
}

// updatePromiseSlots replaces every slot entry of promise pid with the
// row's current shape (p nil or non-active removes them).
func (pm *propMatcher) updatePromiseSlots(pid string, p *Promise) {
	for _, se := range pm.byPromise[pid] {
		pm.removeSlot(se)
	}
	delete(pm.byPromise, pid)
	if p == nil || p.State != Active {
		return
	}
	sole := len(p.Predicates) == 1
	for i, pred := range p.Predicates {
		if pred.View != PropertyView {
			continue
		}
		assigned := ""
		if i < len(p.Assigned) {
			assigned = p.Assigned[i]
		}
		se := &slotEntry{
			key:      slotKey(pid, i),
			expr:     pred.Expr,
			exprStr:  pred.Expr.String(),
			compiled: compilePred(pred.Expr),
			assigned: assigned,
			sole:     sole,
			pos:      len(pm.slotList),
		}
		pm.slotList = append(pm.slotList, se)
		pm.slots[se.key] = se
		pm.byPromise[pid] = append(pm.byPromise[pid], se)
	}
}

func (pm *propMatcher) removeSlot(se *slotEntry) {
	last := len(pm.slotList) - 1
	moved := pm.slotList[last]
	pm.slotList[se.pos] = moved
	moved.pos = se.pos
	pm.slotList = pm.slotList[:last]
	delete(pm.slots, se.key)
}

// updateCand folds one instance's re-classification into the candidate
// structures. The contribution changed (candRecompute only calls on
// change), so any cached edge verdict may be stale: the cache is dropped
// and the row pointer refreshed even when the instance stays hostable.
func (pm *propMatcher) updateCand(id string, hostable, tentative bool, inst *resource.Instance) {
	ce := pm.cands[id]
	if !hostable {
		if ce != nil {
			pm.unindexCand(ce)
			last := len(pm.candList) - 1
			moved := pm.candList[last]
			pm.candList[ce.pos] = moved
			moved.pos = ce.pos
			pm.candList = pm.candList[:last]
			delete(pm.cands, id)
		}
		return
	}
	if ce == nil {
		ce = &candEntry{id: id, pos: len(pm.candList)}
		pm.candList = append(pm.candList, ce)
		pm.cands[id] = ce
	} else {
		pm.unindexCand(ce)
	}
	ce.inst = inst
	ce.tentative = tentative
	ce.edges = nil
	for k, v := range inst.Props {
		pv := pm.byValue[k]
		if pv == nil {
			pv = make(map[predicate.Value]map[string]*candEntry)
			pm.byValue[k] = pv
		}
		set := pv[v]
		if set == nil {
			set = make(map[string]*candEntry)
			pv[v] = set
		}
		set[id] = ce
	}
}

func (pm *propMatcher) unindexCand(ce *candEntry) {
	for k, v := range ce.inst.Props {
		pv := pm.byValue[k]
		set := pv[v]
		delete(set, ce.id)
		if len(set) == 0 {
			delete(pv, v)
			if len(pv) == 0 {
				delete(pm.byValue, k)
			}
		}
	}
}

// indexCandidates resolves e to an exact candidate set when its shape
// allows: an Eq or In comparison against an indexed property, or a
// conjunction containing one. ok=false means "not index-served" (the solver
// scans all candidates). When ok is true the set is a sound superset of e's
// true edges: every conjunct restricts, a candidate missing the property
// cannot satisfy e at all (Eval errors on the unknown reference), and every
// hostable instance is indexed under each of its property values.
func (pm *propMatcher) indexCandidates(e predicate.Expr) (map[string]*candEntry, bool) {
	switch x := e.(type) {
	case *predicate.In:
		ref, isRef := x.X.(*predicate.Ref)
		if !isRef || ref.Name == "id" || ref.Name == "status" {
			return nil, false
		}
		out := make(map[string]*candEntry)
		pv := pm.byValue[ref.Name]
		for _, v := range x.Set {
			for id, ce := range pv[v] {
				out[id] = ce
			}
		}
		return out, true
	case *predicate.Binary:
		switch x.Op {
		case predicate.OpEq:
			ref, lit, _ := refLit(x.L, x.R)
			if ref == nil || ref.Name == "id" || ref.Name == "status" {
				return nil, false
			}
			return pm.byValue[ref.Name][lit.Val], true
		case predicate.OpAnd:
			l, okL := pm.indexCandidates(x.L)
			r, okR := pm.indexCandidates(x.R)
			switch {
			case okL && okR:
				if len(r) < len(l) {
					l = r
				}
				return l, true
			case okL:
				return l, true
			case okR:
				return r, true
			}
			return nil, false
		}
		return nil, false
	default:
		return nil, false
	}
}

// planPropertyFast serves an all-property, no-release grant from the
// persistent matcher state, filling plan's assignments and reallocations.
// It reports whether the predicates are jointly satisfiable. The
// consistency preconditions (called inside a transaction with
// tx.Writes() == 0, MatchingMode) are the caller's. See the file comment
// for why the verdict is exactly the slow path's.
func (m *Manager) planPropertyFast(preds []Predicate, plan *grantPlan) bool {
	pm := &m.pmatch
	nSlots := len(pm.slotList)
	nLeft := nSlots + len(preds)
	nRight := len(pm.candList)

	type leftPred struct {
		expr     predicate.Expr
		exprStr  string
		compiled compiledPred
	}
	newPreds := make([]leftPred, len(preds))
	for i, p := range preds {
		newPreds[i] = leftPred{expr: p.Expr, exprStr: p.Expr.String(), compiled: compilePred(p.Expr)}
	}
	left := func(l int) (predicate.Expr, string, compiledPred) {
		if l < nSlots {
			se := pm.slotList[l]
			return se.expr, se.exprStr, se.compiled
		}
		np := newPreds[l-nSlots]
		return np.expr, np.exprStr, np.compiled
	}

	// Eval verdicts for non-compilable shapes go straight into the shared
	// cache: the caller holds the writer, so nothing else reads or
	// invalidates it during the solve.
	edge := func(l, r int) bool {
		expr, exprStr, compiled := left(l)
		ce := pm.candList[r]
		if compiled != nil {
			return compiled(ce.inst.Props)
		}
		if v, ok := ce.edges[exprStr]; ok {
			return v
		}
		ok, err := predicate.Eval(expr, ce.inst.Env())
		v := err == nil && ok
		if ce.edges == nil {
			ce.edges = make(map[string]bool)
		}
		ce.edges[exprStr] = v
		return v
	}

	adjLists := make([][]int, nLeft)
	adjKnown := make([]bool, nLeft)
	for l := 0; l < nLeft; l++ {
		expr, _, _ := left(l)
		if set, ok := pm.indexCandidates(expr); ok {
			list := make([]int, 0, len(set))
			for _, ce := range set {
				list = append(list, ce.pos)
			}
			adjLists[l] = list
			adjKnown[l] = true
		}
	}
	adj := func(l int) []int {
		if adjKnown[l] {
			return adjLists[l]
		}
		return nil
	}

	initial := make([]int, nLeft)
	for i := range initial {
		initial[i] = matching.Unmatched
	}
	for i, se := range pm.slotList {
		if se.assigned == "" {
			continue
		}
		if ce := pm.cands[se.assigned]; ce != nil {
			initial[i] = ce.pos
		}
	}

	assign, sat := matching.SolveSeeded(nLeft, nRight, edge, adj, initial)
	if sat {
		for i, se := range pm.slotList {
			if id := pm.candList[assign[i]].id; id != se.assigned {
				plan.realloc[se.key] = id
			}
		}
		for k := range preds {
			plan.slots[k].assign = pm.candList[assign[nSlots+k]].id
		}
	}
	return sat
}

// compiledPred is a predicate specialised to direct evaluation over an
// instance's property map — no Env indirection, no AST walk, no error
// allocation. false covers both "unsatisfied" and "evaluation error", which
// is exactly the edge oracle's treatment of predicate.Eval.
type compiledPred func(props map[string]predicate.Value) bool

// compilePred compiles e for the edge oracle, or returns nil when the
// expression cannot be compiled faithfully — a reference to the "id" or
// "status" evaluation builtins (which live on Env, not Props) or an unknown
// node. Callers fall back to predicate.Eval over the full environment.
func compilePred(e predicate.Expr) compiledPred {
	f := compileValue(e)
	if f == nil {
		return nil
	}
	return func(props map[string]predicate.Value) bool {
		v, ok := f(props)
		if !ok {
			return false
		}
		b, isBool := v.AsBool()
		return isBool && b
	}
}

// compileValue mirrors predicate.Eval's evalValue exactly, with ok=false
// standing in for every evaluation error: unknown property, non-bool
// logical operand, cross-kind ordered comparison, non-int arithmetic,
// division by zero.
func compileValue(e predicate.Expr) func(map[string]predicate.Value) (predicate.Value, bool) {
	fail := func() (predicate.Value, bool) { return predicate.Value{}, false }
	switch n := e.(type) {
	case *predicate.Lit:
		v := n.Val
		return func(map[string]predicate.Value) (predicate.Value, bool) { return v, true }
	case *predicate.Ref:
		if n.Name == "id" || n.Name == "status" {
			return nil
		}
		name := n.Name
		return func(props map[string]predicate.Value) (predicate.Value, bool) {
			v, ok := props[name]
			return v, ok
		}
	case *predicate.Not:
		x := compileValue(n.X)
		if x == nil {
			return nil
		}
		return func(props map[string]predicate.Value) (predicate.Value, bool) {
			v, ok := x(props)
			if !ok {
				return fail()
			}
			b, isBool := v.AsBool()
			if !isBool {
				return fail()
			}
			return predicate.Bool(!b), true
		}
	case *predicate.In:
		x := compileValue(n.X)
		if x == nil {
			return nil
		}
		set := n.Set
		return func(props map[string]predicate.Value) (predicate.Value, bool) {
			v, ok := x(props)
			if !ok {
				return fail()
			}
			for _, member := range set {
				if v.Equal(member) {
					return predicate.Bool(true), true
				}
			}
			return predicate.Bool(false), true
		}
	case *predicate.Binary:
		l := compileValue(n.L)
		r := compileValue(n.R)
		if l == nil || r == nil {
			return nil
		}
		switch n.Op {
		case predicate.OpAnd, predicate.OpOr:
			and := n.Op == predicate.OpAnd
			return func(props map[string]predicate.Value) (predicate.Value, bool) {
				lv, ok := l(props)
				if !ok {
					return fail()
				}
				lb, isBool := lv.AsBool()
				if !isBool {
					return fail()
				}
				if and && !lb {
					return predicate.Bool(false), true
				}
				if !and && lb {
					return predicate.Bool(true), true
				}
				rv, ok := r(props)
				if !ok {
					return fail()
				}
				rb, isBool := rv.AsBool()
				if !isBool {
					return fail()
				}
				return predicate.Bool(rb), true
			}
		case predicate.OpEq, predicate.OpNeq:
			eq := n.Op == predicate.OpEq
			return func(props map[string]predicate.Value) (predicate.Value, bool) {
				lv, ok := l(props)
				if !ok {
					return fail()
				}
				rv, ok := r(props)
				if !ok {
					return fail()
				}
				return predicate.Bool(lv.Equal(rv) == eq), true
			}
		case predicate.OpLt, predicate.OpLe, predicate.OpGt, predicate.OpGe:
			op := n.Op
			return func(props map[string]predicate.Value) (predicate.Value, bool) {
				lv, ok := l(props)
				if !ok {
					return fail()
				}
				rv, ok := r(props)
				if !ok {
					return fail()
				}
				c, err := lv.Compare(rv)
				if err != nil {
					return fail()
				}
				var b bool
				switch op {
				case predicate.OpLt:
					b = c < 0
				case predicate.OpLe:
					b = c <= 0
				case predicate.OpGt:
					b = c > 0
				default:
					b = c >= 0
				}
				return predicate.Bool(b), true
			}
		case predicate.OpAdd, predicate.OpSub, predicate.OpMul, predicate.OpDiv, predicate.OpMod:
			op := n.Op
			return func(props map[string]predicate.Value) (predicate.Value, bool) {
				lv, ok := l(props)
				if !ok {
					return fail()
				}
				rv, ok := r(props)
				if !ok {
					return fail()
				}
				if op == predicate.OpAdd {
					if ls, lok := lv.AsString(); lok {
						if rs, rok := rv.AsString(); rok {
							return predicate.Str(ls + rs), true
						}
					}
				}
				li, lok := lv.AsInt()
				ri, rok := rv.AsInt()
				if !lok || !rok {
					return fail()
				}
				switch op {
				case predicate.OpAdd:
					return predicate.Int(li + ri), true
				case predicate.OpSub:
					return predicate.Int(li - ri), true
				case predicate.OpMul:
					return predicate.Int(li * ri), true
				case predicate.OpDiv:
					if ri == 0 {
						return fail()
					}
					return predicate.Int(li / ri), true
				default:
					if ri == 0 {
						return fail()
					}
					return predicate.Int(li % ri), true
				}
			}
		}
		return nil
	default:
		return nil
	}
}
