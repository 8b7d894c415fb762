package core

import (
	"sync/atomic"
	"time"

	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/softlock"
	"repro/internal/txn"
)

// This file maintains the per-shard property/instance candidate index that
// backs the cross-shard reservation pre-filter. A property-view predicate
// can in principle be satisfied on any shard, so before this index every
// request carrying one reserved every shard. The index is the placement
// pre-filter: a counted summary of what each shard could actually
// contribute to the joint property match —
//
//   - Hostable: how many instances the shard can offer as match candidates
//     (available instances plus instances tentatively held by active
//     property slots, exactly the candidate set Reservation.PropertyContext
//     would report);
//   - Slots: how many active property-view slots live on the shard (the
//     left vertices the shard contributes, and the slots a migration could
//     displace);
//   - ByProp: per property name, per value, how many hostable instances
//     carry it — enough to answer "could any instance here satisfy this
//     predicate?" conservatively for the common predicate shapes.
//
// The index is updated incrementally by the store's commit hook (invoked
// serially, in commit order, with the fresh snapshot and the commit's
// touched keys), and published for lock-free reading through an atomic
// pointer — the same epoch/RCU pattern as the snapshots themselves. Every
// state change that can affect an instance's hostability touches either
// the instance row (status transitions) or its soft-lock row (holder
// changes), so the touched-key set is a sound trigger; assigned instances
// of touched promise rows are re-examined too, belt and braces.
//
// Soundness contract: the pre-filter may only *over*-approximate. A shard
// reported as unable to contribute (Slots == 0 and Hostable == 0, or — when
// no property slot exists anywhere — no hostable instance that could
// satisfy any requested predicate) is guaranteed to add no left vertex and
// no usable right vertex to the joint bipartite problem, so excluding it
// cannot change feasibility. Anything the index cannot classify
// conservatively reports "may contribute", falling back to the all-shards
// behaviour.

// instContrib is one instance's current contribution to the index.
// pinnedUntil is non-zero for an instance that is not hostable only
// because an active non-property promise holds it: when that promise's
// deadline passes, the first reservation to touch the shard sweeps it
// free, so the pre-filter must treat the shard as contributing again from
// that instant even though no commit has re-classified the instance yet.
type instContrib struct {
	hostable bool
	// tentative distinguishes the two hostable states (available vs held
	// by an active property slot). The counts don't care, but the
	// persistent matcher (propmatch.go) serves the instance's row and
	// tentative flag directly and caches predicate evaluations against its
	// environment — so an Available ↔ property-held transition must count
	// as a contribution change even though every count stays put, or the
	// matcher would keep a stale row pointer and stale status-dependent
	// edge verdicts.
	tentative   bool
	pinnedUntil time.Time
	props       map[string]predicate.Value
}

func (a instContrib) equal(b instContrib) bool {
	if a.hostable != b.hostable || a.tentative != b.tentative || !a.pinnedUntil.Equal(b.pinnedUntil) || len(a.props) != len(b.props) {
		return false
	}
	for k, v := range a.props {
		if w, ok := b.props[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// promContrib is one active promise's contribution: its property-slot
// count and the instances it holds (whose hostability classification
// depends on this promise's shape).
type promContrib struct {
	propSlots int
	assigned  []string
}

// candSummary is the immutable published form of the index, read lock-free
// by the cross-shard coordinator.
type candSummary struct {
	// Hostable counts instances this shard can offer the global property
	// match (available + tentatively property-held).
	Hostable int
	// Slots counts active property-view slots on this shard.
	Slots int
	// Pinned counts instances held by active non-property promises, and
	// MinPinnedExpiry is the earliest deadline among their holders. Past
	// that instant the summary under-counts (a reservation's sweep would
	// free the instance), so the pre-filter must stop trusting a
	// cannot-contribute verdict for this shard.
	Pinned          int
	MinPinnedExpiry time.Time
	// ByProp counts hostable instances per property name and value.
	ByProp map[string]map[predicate.Value]int
}

// candidateIndex is the mutable master state. It is only ever touched by
// the store's serialized commit hook (plus init before the manager is
// shared), so it needs no locking of its own; readers see the published
// summary.
type candidateIndex struct {
	insts    map[string]instContrib
	promises map[string]promContrib
	pinned   map[string]time.Time // instance -> holder promise expiry
	hostable int
	slots    int
	byProp   map[string]map[predicate.Value]int
	// dirty names the properties whose counts changed since the last
	// publication, so candPublish copies one property's value map per
	// touched property instead of the whole ByProp tree (per-property
	// copy-on-write, mirroring the store snapshots' bucketed COW).
	dirty   map[string]struct{}
	summary atomic.Pointer[candSummary]
}

// CandidateSummary returns the manager's current candidate-index summary
// (lock-free).
func (m *Manager) CandidateSummary() (hostable, slots int) {
	s := m.cand.summary.Load()
	return s.Hostable, s.Slots
}

// init performs a full rebuild from a snapshot — called once from New,
// before the manager is visible to other goroutines, so a manager opened
// over a pre-populated store starts with a correct index.
func (m *Manager) candInit(snap *txn.Snapshot) {
	c := &m.cand
	pm := &m.pmatch
	pm.init()
	c.insts = make(map[string]instContrib)
	c.promises = make(map[string]promContrib)
	c.pinned = make(map[string]time.Time)
	c.hostable, c.slots = 0, 0
	c.byProp = make(map[string]map[predicate.Value]int)
	c.dirty = make(map[string]struct{})
	_ = snap.Scan(TablePromises, func(key string, row txn.Row) bool {
		p := &row.(*promiseRow).p
		pc := promContribOf(p)
		if pc.propSlots > 0 || len(pc.assigned) > 0 {
			c.promises[key] = pc
			c.slots += pc.propSlots
		}
		pm.updatePromiseSlots(key, p)
		return true
	})
	_ = snap.Scan(resource.TableInstances, func(key string, _ txn.Row) bool {
		m.candRecompute(snap, key)
		return true
	})
	m.candPublish()
}

// onCommit is the store commit hook: it folds one commit's touched keys
// into the index and republishes the summary when anything changed. Calls
// run under the store's writer, in commit order.
func (m *Manager) onCommit(snap *txn.Snapshot, touched []txn.TableKey) {
	c := &m.cand
	pm := &m.pmatch
	var affected map[string]bool
	touch := func(id string) {
		if affected == nil {
			affected = make(map[string]bool, len(touched))
		}
		affected[id] = true
	}
	changed := false
	for _, tk := range touched {
		switch tk.Table {
		case TablePromises:
			old := c.promises[tk.Key]
			var neu promContrib
			var prow *Promise
			present := false
			if row, err := snap.Get(TablePromises, tk.Key); err == nil {
				prow = &row.(*promiseRow).p
				neu = promContribOf(prow)
				present = true
			}
			pm.updatePromiseSlots(tk.Key, prow)
			if neu.propSlots != old.propSlots {
				c.slots += neu.propSlots - old.propSlots
				changed = true
			}
			// The promise's shape decides whether its held instances count
			// as tentative (re-matchable) candidates, so both the old and
			// the new holdings are re-classified.
			for _, in := range old.assigned {
				touch(in)
			}
			for _, in := range neu.assigned {
				touch(in)
			}
			if present && (neu.propSlots > 0 || len(neu.assigned) > 0) {
				c.promises[tk.Key] = neu
			} else {
				delete(c.promises, tk.Key)
			}
		case softlock.Table, resource.TableInstances:
			touch(tk.Key)
		}
	}
	for id := range affected {
		if m.candRecompute(snap, id) {
			changed = true
		}
	}
	if changed {
		m.candPublish()
	}
	// Durability rides the same hook: the commit record is appended after
	// the snapshot is published, still inside the store's serialized hook
	// order, so log order equals version order and a checkpoint taken from
	// any later snapshot covers every record logged before it.
	if m.persist != nil {
		m.persist.logCommit(snap, touched)
	}
}

// promContribOf summarises one active promise row for the index.
func promContribOf(p *Promise) promContrib {
	var pc promContrib
	for i, pred := range p.Predicates {
		if pred.View == PropertyView {
			pc.propSlots++
		}
		if pred.View != AnonymousView && i < len(p.Assigned) && p.Assigned[i] != "" {
			pc.assigned = append(pc.assigned, p.Assigned[i])
		}
	}
	return pc
}

// candRecompute re-classifies one instance against the snapshot and folds
// the difference into the counts and the persistent matcher state. Returns
// whether anything changed.
func (m *Manager) candRecompute(snap *txn.Snapshot, id string) bool {
	c := &m.cand
	neu, inst, exists := m.candClassify(snap, id)
	old := c.insts[id]
	if old.equal(neu) {
		return false
	}
	if neu.pinnedUntil.IsZero() {
		delete(c.pinned, id)
	} else {
		c.pinned[id] = neu.pinnedUntil
	}
	if old.hostable {
		c.hostable--
		for k, v := range old.props {
			pv := c.byProp[k]
			pv[v]--
			c.dirty[k] = struct{}{}
			if pv[v] <= 0 {
				delete(pv, v)
				if len(pv) == 0 {
					delete(c.byProp, k)
				}
			}
		}
	}
	if neu.hostable {
		c.hostable++
		for k, v := range neu.props {
			pv := c.byProp[k]
			if pv == nil {
				pv = make(map[predicate.Value]int)
				c.byProp[k] = pv
			}
			pv[v]++
			c.dirty[k] = struct{}{}
		}
	}
	m.pmatch.updateCand(id, neu.hostable, neu.tentative, inst)
	if exists {
		c.insts[id] = neu
	} else {
		delete(c.insts, id)
	}
	return true
}

// candClassify decides whether instance id is currently hostable: free for
// the taking, or tentatively held by an active property slot (which the
// matcher may rearrange). State-active promises past their wall-clock
// expiry still count — over-approximation is the safe direction, and the
// expiry transaction will retouch the rows moments later.
func (m *Manager) candClassify(snap *txn.Snapshot, id string) (instContrib, *resource.Instance, bool) {
	row, err := snap.Get(resource.TableInstances, id)
	if err != nil {
		return instContrib{}, nil, false
	}
	in := row.(*resource.Instance)
	switch in.Status {
	case resource.Available:
		return instContrib{hostable: true, props: in.Props}, in, true
	case resource.Promised:
		holder, err := m.tags.Holder(snap, id)
		if err != nil || holder == "" {
			return instContrib{}, in, true
		}
		pid, idx, ok := parseSlotKey(holder)
		if !ok {
			return instContrib{}, in, true
		}
		prow, err := snap.Get(TablePromises, pid)
		if err != nil {
			return instContrib{}, in, true
		}
		p := &prow.(*promiseRow).p
		if p.State == Active && idx < len(p.Predicates) && p.Predicates[idx].View == PropertyView {
			return instContrib{hostable: true, tentative: true, props: in.Props}, in, true
		}
		if p.State == Active {
			// Held by an active named-view (or mixed) promise: not
			// hostable now, but a reservation's sweep frees it the moment
			// the holder's deadline passes — record that instant so the
			// pre-filter stops trusting this classification after it.
			return instContrib{pinnedUntil: p.Expires}, in, true
		}
		return instContrib{}, in, true
	default: // Taken
		return instContrib{}, in, true
	}
}

// candPublish snapshots the counts into a fresh immutable summary. ByProp
// is copied per property: value maps of properties untouched since the last
// publication are shared with the previous summary (both are immutable once
// published), so a commit touching an instance with few properties pays for
// those properties only, however many distinct properties the shard hosts.
func (m *Manager) candPublish() {
	c := &m.cand
	prev := c.summary.Load()
	s := &candSummary{
		Hostable: c.hostable,
		Slots:    c.slots,
		Pinned:   len(c.pinned),
		ByProp:   make(map[string]map[predicate.Value]int, len(c.byProp)),
	}
	for _, at := range c.pinned {
		if s.MinPinnedExpiry.IsZero() || at.Before(s.MinPinnedExpiry) {
			s.MinPinnedExpiry = at
		}
	}
	for k, pv := range c.byProp {
		if prev != nil {
			if _, isDirty := c.dirty[k]; !isDirty {
				if shared, ok := prev.ByProp[k]; ok {
					s.ByProp[k] = shared
					continue
				}
			}
		}
		cp := make(map[predicate.Value]int, len(pv))
		for v, n := range pv {
			cp[v] = n
		}
		s.ByProp[k] = cp
	}
	for k := range c.dirty {
		delete(c.dirty, k)
	}
	c.summary.Store(s)
}

// indexMay conservatively decides whether any hostable instance counted in
// byProp could satisfy e. ok=false means the expression shape is not
// indexable and the caller must assume "may". When ok is true, may=false
// is a guarantee: no hostable instance on this shard satisfies e
// (evaluation over a missing property is an error, i.e. unsatisfied, which
// is why per-value counts suffice).
func indexMay(e predicate.Expr, byProp map[string]map[predicate.Value]int) (may, ok bool) {
	vals := func(name string) (map[predicate.Value]int, bool) {
		// "id" and "status" are evaluation builtins, not indexed
		// properties; predicates over them are not prunable here.
		if name == "id" || name == "status" {
			return nil, false
		}
		return byProp[name], true
	}
	switch x := e.(type) {
	case *predicate.Lit:
		if b, isBool := x.Val.AsBool(); isBool {
			return b, true
		}
		return true, false
	case *predicate.Ref:
		pv, ok := vals(x.Name)
		if !ok {
			return true, false
		}
		return pv[predicate.Bool(true)] > 0, true
	case *predicate.Not:
		if ref, isRef := x.X.(*predicate.Ref); isRef {
			pv, ok := vals(ref.Name)
			if !ok {
				return true, false
			}
			return pv[predicate.Bool(false)] > 0, true
		}
		if in, isIn := x.X.(*predicate.In); isIn {
			// not (p in {…}) is satisfiable here iff some hostable value
			// of p falls outside the set (In never errors on a present
			// property, so negation is exact; a missing property errors,
			// i.e. unsatisfied, matching Eval).
			ref, isRef := in.X.(*predicate.Ref)
			if !isRef {
				return true, false
			}
			pv, ok := vals(ref.Name)
			if !ok {
				return true, false
			}
			for v := range pv {
				member := false
				for _, s := range in.Set {
					if v.Equal(s) {
						member = true
						break
					}
				}
				if !member {
					return true, true
				}
			}
			return false, true
		}
		return true, false
	case *predicate.In:
		ref, isRef := x.X.(*predicate.Ref)
		if !isRef {
			return true, false
		}
		pv, ok := vals(ref.Name)
		if !ok {
			return true, false
		}
		for _, v := range x.Set {
			if pv[v] > 0 {
				return true, true
			}
		}
		return false, true
	case *predicate.Binary:
		switch x.Op {
		case predicate.OpAnd:
			mayL, okL := indexMay(x.L, byProp)
			mayR, okR := indexMay(x.R, byProp)
			// A definite "no" on either side kills the conjunction; a
			// definite "yes" on both over-approximates (the two sides may
			// hold on different instances), which is the safe direction.
			if (okL && !mayL) || (okR && !mayR) {
				return false, true
			}
			if okL && okR {
				return true, true
			}
			return true, false
		case predicate.OpOr:
			mayL, okL := indexMay(x.L, byProp)
			mayR, okR := indexMay(x.R, byProp)
			if (okL && mayL) || (okR && mayR) {
				return true, true
			}
			if okL && okR {
				return false, true
			}
			return true, false
		case predicate.OpEq, predicate.OpNeq, predicate.OpLt, predicate.OpLe, predicate.OpGt, predicate.OpGe:
			ref, lit, flipped := refLit(x.L, x.R)
			if ref == nil {
				return true, false
			}
			pv, ok := vals(ref.Name)
			if !ok {
				return true, false
			}
			for v := range pv {
				l, r := v, lit.Val
				if flipped {
					l, r = r, l
				}
				sat := false
				switch x.Op {
				// Mirror Eval exactly: =/!= go through Value.Equal, so a
				// kind mismatch makes = false and != TRUE; the ordered
				// comparisons go through Value.Compare, whose kind-mismatch
				// error Eval turns into "unsatisfied".
				case predicate.OpEq:
					sat = l.Equal(r)
				case predicate.OpNeq:
					sat = !l.Equal(r)
				default:
					cmp, err := l.Compare(r)
					if err != nil {
						continue // ordered comparison across kinds: Eval errors, unsatisfied
					}
					switch x.Op {
					case predicate.OpLt:
						sat = cmp < 0
					case predicate.OpLe:
						sat = cmp <= 0
					case predicate.OpGt:
						sat = cmp > 0
					case predicate.OpGe:
						sat = cmp >= 0
					}
				}
				if sat {
					return true, true
				}
			}
			return false, true
		default:
			return true, false
		}
	default:
		return true, false
	}
}

// refLit destructures a comparison into (property ref, literal), reporting
// whether the ref was on the right (so the comparison reads literal-op-ref
// and must flip).
func refLit(l, r predicate.Expr) (*predicate.Ref, *predicate.Lit, bool) {
	if ref, ok := l.(*predicate.Ref); ok {
		if lit, ok := r.(*predicate.Lit); ok {
			return ref, lit, false
		}
	}
	if ref, ok := r.(*predicate.Ref); ok {
		if lit, ok := l.(*predicate.Lit); ok {
			return ref, lit, true
		}
	}
	return nil, nil, false
}
