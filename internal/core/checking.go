package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/txn"
)

// This file implements "the most critical part of the promise manager …
// the code that guarantees the validity of non-expired promises by ensuring
// that sufficient resources are available to satisfy every active
// predicate" (§8). Promise checking runs in three places, exactly as the
// paper lists: making new promises, executing actions (post-check), and
// updating existing promises.

// slotPlan is the resolved backing for one new predicate.
type slotPlan struct {
	// assign is the instance backing a named/property predicate.
	assign string
	// localQty / delegQty split an anonymous quantity between local stock
	// and an upstream supplier promise (§5 delegation).
	localQty int64
	delegQty int64
	delegID  string
}

// grantPlan is a feasible assignment for a whole promise request.
type grantPlan struct {
	slots []slotPlan
	// realloc maps existing property slots to new instances — the
	// "tentative allocation" rearrangement of §5.
	realloc map[string]string
}

// propSlot is one active property-view predicate with its tentative
// assignment. sole marks slots whose promise has no other predicate — the
// shape the cross-shard coordinator may migrate between shards.
type propSlot struct {
	key      string
	expr     predicate.Expr
	assigned string
	sole     bool
}

// plan decides whether the predicates can all be guaranteed, treating the
// promises in releases as already gone (§4, third requirement). It returns
// (nil, reason, nil) for a clean rejection — "unfulfillable promise
// requests are rejected immediately rather than blocking" (§9).
//
// Planning may obtain upstream promises for delegation. Because a rejection
// leaves the local transaction alive (other promise requests in the same
// message still proceed), upstream promises acquired by a rejected plan are
// compensated here, immediately; upstream promises of a successful plan are
// registered on st for compensation if the whole transaction later aborts.
//
// On rejection, counter carries the manager's best counter-offer (§6's
// "accepted with the condition XX" direction): the largest quantities it
// could promise for the pools that fell short.
func (m *Manager) plan(ctx context.Context, tx *txn.Tx, st *execState, preds []Predicate, releases []*Promise, d time.Duration) (_ *grantPlan, reason string, counter []Predicate, _ error) {
	planState := &execState{}
	plan, reason, counter, err := m.planInner(ctx, tx, planState, preds, releases, d)
	acquired := planState.undoUpstream
	if plan == nil {
		for i := len(acquired) - 1; i >= 0; i-- {
			acquired[i]()
		}
		return nil, reason, counter, err
	}
	st.undoUpstream = append(st.undoUpstream, acquired...)
	return plan, "", nil, nil
}

func (m *Manager) planInner(ctx context.Context, tx *txn.Tx, st *execState, preds []Predicate, releases []*Promise, d time.Duration) (*grantPlan, string, []Predicate, error) {
	excludedSlots := make(map[string]bool)
	freedQty := make(map[string]int64) // pool -> quantity freed by releases
	freedInst := make(map[string]bool) // instances freed by releases
	for _, rp := range releases {
		for i, pred := range rp.Predicates {
			slot := slotKey(rp.ID, i)
			excludedSlots[slot] = true
			switch pred.View {
			case AnonymousView:
				q, err := m.ledger.Reserved(tx, pred.Pool, slot)
				if err != nil {
					return nil, "", nil, err
				}
				freedQty[pred.Pool] += q
			case NamedView, PropertyView:
				if i < len(rp.Assigned) && rp.Assigned[i] != "" {
					holder, err := m.tags.Holder(tx, rp.Assigned[i])
					if err != nil {
						return nil, "", nil, err
					}
					if holder == slot {
						freedInst[rp.Assigned[i]] = true
					}
				}
			}
		}
	}

	plan := &grantPlan{slots: make([]slotPlan, len(preds)), realloc: make(map[string]string)}

	// --- Anonymous predicates: escrow arithmetic per pool (§3.1). ---
	needed := make(map[string]int64)
	for _, p := range preds {
		if p.View == AnonymousView {
			needed[p.Pool] += p.Qty
		}
	}
	localAvail := make(map[string]int64)
	delegAvail := make(map[string]bool)
	pools := make([]string, 0, len(needed))
	for pool := range needed {
		pools = append(pools, pool)
	}
	sort.Strings(pools)
	var shortReasons []string
	var counter []Predicate
	for _, pool := range pools {
		need := needed[pool]
		unres, err := m.ledger.Unreserved(tx, pool)
		if err != nil {
			return nil, fmt.Sprintf("pool %q: %v", pool, err), nil, nil
		}
		avail := unres + freedQty[pool]
		localAvail[pool] = avail
		if need > avail {
			if m.cfg.Suppliers[pool] == nil {
				// Reject, but tell the client the best we could do (§6's
				// "accepted with the condition XX" direction).
				shortReasons = append(shortReasons,
					fmt.Sprintf("pool %q: requested %d, only %d available", pool, need, avail))
				if avail > 0 {
					counter = append(counter, Quantity(pool, avail))
				}
				continue
			}
			delegAvail[pool] = true
		}
	}
	if len(shortReasons) > 0 {
		return nil, strings.Join(shortReasons, "; "), counter, nil
	}
	// Obtain upstream promises for shortfalls before mutating anything, so
	// an upstream rejection leaves released promises untouched.
	remaining := make(map[string]int64, len(localAvail))
	for pool, avail := range localAvail {
		remaining[pool] = avail
	}
	for i, p := range preds {
		if p.View != AnonymousView {
			continue
		}
		local := p.Qty
		if local > remaining[p.Pool] {
			local = remaining[p.Pool]
		}
		if local < 0 {
			local = 0
		}
		short := p.Qty - local
		if short > 0 {
			if !delegAvail[p.Pool] {
				return nil, fmt.Sprintf("pool %q: internal shortfall", p.Pool), nil, nil
			}
			sup := m.cfg.Suppliers[p.Pool]
			upID, err := sup.RequestPromise(ctx, p.Pool, short, d)
			if err != nil {
				return nil, fmt.Sprintf("pool %q: upstream: %v", p.Pool, err), nil, nil
			}
			// Compensation runs even when the request's context has died —
			// the upstream hold must never leak.
			st.undoUpstream = append(st.undoUpstream, func() { _ = sup.ReleasePromise(context.Background(), upID) })
			plan.slots[i].delegQty = short
			plan.slots[i].delegID = upID
		}
		plan.slots[i].localQty = local
		remaining[p.Pool] -= local
	}

	// --- Named and property predicates over instances (§3.2, §3.3). ---
	// A request with only anonymous predicates needs none of the instance
	// machinery below — skipping it keeps the common grant free of the
	// O(active-promise) and O(instance) scans (the expiry heap removed the
	// other per-request scan; see sweepExpired).
	instancePreds := false
	for _, p := range preds {
		if p.View != AnonymousView {
			instancePreds = true
			break
		}
	}
	if !instancePreds {
		return plan, "", nil, nil
	}

	// Fast path: an all-property request on a transaction with no writes
	// can be served from the persistent matcher state (propmatch.go) —
	// O(delta) instead of the three full table scans below. The gate
	// conditions are exactly the preconditions of propmatch.go's
	// consistency argument: no releases and no prior writes (so the
	// committed state the matcher mirrors IS the transaction's view, and a
	// sweep that lapsed anything already disqualified us), matching mode,
	// and no named predicates (whose claims would carve instances out of
	// the candidate set).
	if m.cfg.PropertyMode == MatchingMode && !m.cfg.disableFastPath &&
		len(releases) == 0 && tx.Writes() == 0 {
		allProperty := true
		for _, p := range preds {
			if p.View != PropertyView {
				allProperty = false
				break
			}
		}
		if allProperty {
			if !m.planPropertyFast(preds, plan) {
				return nil, "property predicates not jointly satisfiable with outstanding promises", nil, nil
			}
			return plan, "", nil, nil
		}
	}

	instances, err := m.rm.Instances(tx)
	if err != nil {
		return nil, "", nil, err
	}
	holders, err := m.tags.Holders(tx)
	if err != nil {
		return nil, "", nil, err
	}
	activeProps, err := m.activePropertySlots(tx, excludedSlots)
	if err != nil {
		return nil, "", nil, err
	}
	propSlotSet := make(map[string]bool, len(activeProps))
	for _, s := range activeProps {
		propSlotSet[s.key] = true
	}

	// Resolve named predicates, collecting instances that must be freed
	// from property assignments by reallocation.
	claimed := make(map[string]int) // instance -> index of claiming named pred
	mustFree := make(map[string]bool)
	for i, p := range preds {
		if p.View != NamedView {
			continue
		}
		if prev, dup := claimed[p.Instance]; dup {
			return nil, fmt.Sprintf("instance %q requested twice (predicates %d and %d)", p.Instance, prev, i), nil, nil
		}
		in, err := m.rm.Instance(tx, p.Instance)
		if err != nil {
			return nil, fmt.Sprintf("instance %q: %v", p.Instance, err), nil, nil
		}
		switch {
		case in.Status == resource.Available:
			// free
		case in.Status == resource.Promised && excludedSlots[holders[p.Instance]]:
			// held by a promise being handed back
		case in.Status == resource.Promised && propSlotSet[holders[p.Instance]] && m.cfg.PropertyMode == MatchingMode:
			// tentatively allocated to a property promise; try to move it
			mustFree[p.Instance] = true
		default:
			return nil, fmt.Sprintf("instance %q is %v", p.Instance, in.Status), nil, nil
		}
		claimed[p.Instance] = i
		plan.slots[i].assign = p.Instance
	}

	// Property predicates.
	var newProps []int
	for i, p := range preds {
		if p.View == PropertyView {
			newProps = append(newProps, i)
		}
	}
	if len(newProps) == 0 && len(mustFree) == 0 {
		return plan, "", nil, nil
	}

	if m.cfg.PropertyMode == FirstFitMode {
		// Greedy: first free satisfying instance, no reallocation. Freed
		// instances from released promises count as free only while still
		// tagged promised (a taken instance is gone for good).
		used := make(map[string]bool)
		for _, i := range newProps {
			found := ""
			for _, in := range instances {
				if used[in.ID] {
					continue
				}
				if _, c := claimed[in.ID]; c {
					continue
				}
				free := in.Status == resource.Available ||
					(freedInst[in.ID] && in.Status == resource.Promised)
				if !free {
					continue
				}
				ok, err := predicate.Eval(preds[i].Expr, in.Env())
				if err != nil || !ok {
					continue
				}
				found = in.ID
				break
			}
			if found == "" {
				return nil, fmt.Sprintf("no available instance satisfies %s", preds[i]), nil, nil
			}
			used[found] = true
			plan.slots[i].assign = found
		}
		return plan, "", nil, nil
	}

	// MatchingMode: incremental matching over all property slots —
	// existing tentative allocations plus the new predicates — against
	// every instance that is free, freed by the releases, or tentatively
	// held by a property slot (§5 satisfiability check + tentative
	// allocation). Existing assignments seed the matching; only new or
	// displaced slots need augmenting paths (see lazymatch.go).
	var right []*resource.Instance
	for _, in := range instances {
		if _, c := claimed[in.ID]; c {
			continue // a new named predicate takes it
		}
		switch {
		case in.Status == resource.Available:
		case freedInst[in.ID] && in.Status == resource.Promised:
		case in.Status == resource.Promised && propSlotSet[holders[in.ID]]:
		default:
			continue
		}
		right = append(right, in)
	}

	exprs := make([]predicate.Expr, 0, len(activeProps)+len(newProps))
	initial := make([]string, 0, len(activeProps)+len(newProps))
	for _, s := range activeProps {
		exprs = append(exprs, s.expr)
		initial = append(initial, s.assigned)
	}
	for _, i := range newProps {
		exprs = append(exprs, preds[i].Expr)
		initial = append(initial, "")
	}
	assignment, ok := newLazyMatcher(exprs, right).solve(initial)
	if !ok {
		return nil, "property predicates not jointly satisfiable with outstanding promises", nil, nil
	}
	for k, s := range activeProps {
		if assignment[k] != s.assigned {
			plan.realloc[s.key] = assignment[k]
		}
	}
	for k, i := range newProps {
		plan.slots[i].assign = assignment[len(activeProps)+k]
	}
	return plan, "", nil, nil
}

// activePropertySlots lists every property predicate of every active
// promise, minus excluded slots.
func (m *Manager) activePropertySlots(r txn.Reader, excluded map[string]bool) ([]propSlot, error) {
	promises, err := m.activePromises(r)
	if err != nil {
		return nil, err
	}
	var out []propSlot
	for _, p := range promises {
		for i, pred := range p.Predicates {
			if pred.View != PropertyView {
				continue
			}
			key := slotKey(p.ID, i)
			if excluded[key] {
				continue
			}
			assigned := ""
			if i < len(p.Assigned) {
				assigned = p.Assigned[i]
			}
			out = append(out, propSlot{key: key, expr: pred.Expr, assigned: assigned, sole: len(p.Predicates) == 1})
		}
	}
	return out, nil
}

// applyGrant reserves, tags and records the backing decided by plan.
func (m *Manager) applyGrant(tx *txn.Tx, prm *Promise, plan *grantPlan) error {
	if err := m.applyRealloc(tx, plan.realloc); err != nil {
		return err
	}
	n := len(prm.Predicates)
	prm.Assigned = make([]string, n)
	prm.DelegatedQty = make([]int64, n)
	prm.DelegatedID = make([]string, n)
	for i, pred := range prm.Predicates {
		slot := slotKey(prm.ID, i)
		sp := plan.slots[i]
		switch pred.View {
		case AnonymousView:
			if sp.localQty > 0 {
				if err := m.ledger.Reserve(tx, pred.Pool, slot, sp.localQty); err != nil {
					return fmt.Errorf("core: grant of %s failed after planning: %w", pred, err)
				}
			}
			prm.DelegatedQty[i] = sp.delegQty
			prm.DelegatedID[i] = sp.delegID
		case NamedView, PropertyView:
			if err := m.tags.Acquire(tx, sp.assign, slot); err != nil {
				return fmt.Errorf("core: grant of %s failed after planning: %w", pred, err)
			}
			prm.Assigned[i] = sp.assign
		}
	}
	return m.putPromise(tx, prm)
}

// applyRealloc moves tentative property allocations: all old tags are
// released first, then the new ones acquired, then the owning promise rows
// updated — one atomic rearrangement inside the request transaction.
func (m *Manager) applyRealloc(tx *txn.Tx, realloc map[string]string) error {
	if len(realloc) == 0 {
		return nil
	}
	type move struct {
		promiseID string
		predIdx   int
		slot      string
		from, to  string
	}
	var moves []move
	for slot, to := range realloc {
		pid, idx, ok := parseSlotKey(slot)
		if !ok {
			return fmt.Errorf("core: bad slot key %q", slot)
		}
		p, err := m.promise(tx, pid)
		if err != nil {
			return err
		}
		from := ""
		if idx < len(p.Assigned) {
			from = p.Assigned[idx]
		}
		moves = append(moves, move{promiseID: pid, predIdx: idx, slot: slot, from: from, to: to})
	}
	// Phase 1: release all old tags.
	for _, mv := range moves {
		if mv.from == "" || mv.from == mv.to {
			continue
		}
		holder, err := m.tags.Holder(tx, mv.from)
		if err != nil {
			return err
		}
		if holder == mv.slot {
			if err := m.tags.Release(tx, mv.from, mv.slot); err != nil {
				return err
			}
		}
	}
	// Phase 2: acquire new tags and update promise rows.
	for _, mv := range moves {
		if mv.from == mv.to {
			continue
		}
		if err := m.tags.Acquire(tx, mv.to, mv.slot); err != nil {
			return err
		}
		p, err := m.promise(tx, mv.promiseID)
		if err != nil {
			return err
		}
		p.Assigned[mv.predIdx] = mv.to
		if err := m.putPromise(tx, p); err != nil {
			return err
		}
	}
	return nil
}

// violationError names the first promise a post-action check found broken,
// so the Violated lifecycle event can address the promise's owner. Its text
// is exactly the message checkAll always produced.
type violationError struct {
	PromiseID string
	Client    string
	err       error
}

func (v *violationError) Error() string { return v.err.Error() }
func (v *violationError) Unwrap() error { return v.err }

// checkAll is the post-action promise check of §8: "the promise manager
// also has to check for consistency after an action has been completed.
// This ensures that the state changes made by the application have not
// violated any unrelated promises." It returns a descriptive error when
// any active promise can no longer be honoured.
func (m *Manager) checkAll(tx *txn.Tx) error {
	// Anonymous view: the escrow sums must still fit the pools.
	if err := m.ledger.CheckAllInvariants(tx); err != nil {
		return err
	}
	promises, err := m.activePromises(tx)
	if err != nil {
		return err
	}
	brokenProperty := false
	for _, p := range promises {
		for i, pred := range p.Predicates {
			slot := slotKey(p.ID, i)
			switch pred.View {
			case NamedView:
				if err := m.slotHealthy(tx, p.Assigned[i], slot, nil); err != nil {
					return &violationError{PromiseID: p.ID, Client: p.Client,
						err: fmt.Errorf("promise %s predicate %d (%s): %v", p.ID, i, pred, err)}
				}
			case PropertyView:
				if err := m.slotHealthy(tx, p.Assigned[i], slot, pred.Expr); err != nil {
					if m.cfg.PropertyMode == FirstFitMode {
						return &violationError{PromiseID: p.ID, Client: p.Client,
							err: fmt.Errorf("promise %s predicate %d (%s): %v", p.ID, i, pred, err)}
					}
					brokenProperty = true
				}
			}
		}
	}
	if brokenProperty {
		// Tentative allocations can be rearranged (§5): the promises are
		// still honourable if a fresh matching saturates.
		return m.rematchProperties(tx)
	}
	return nil
}

// slotHealthy verifies one instance-backed slot: instance present, still
// tagged promised, held by this slot, and (for property view) still
// satisfying the predicate.
func (m *Manager) slotHealthy(r txn.Reader, inst, slot string, expr predicate.Expr) error {
	if inst == "" {
		return fmt.Errorf("no assigned instance")
	}
	in, err := m.rm.Instance(r, inst)
	if err != nil {
		return fmt.Errorf("assigned instance %q: %v", inst, err)
	}
	if in.Status != resource.Promised {
		return fmt.Errorf("assigned instance %q is %v, want promised", inst, in.Status)
	}
	holder, err := m.tags.Holder(r, inst)
	if err != nil {
		return err
	}
	if holder != slot {
		return fmt.Errorf("assigned instance %q is held by %q", inst, holder)
	}
	if expr != nil {
		ok, err := predicate.Eval(expr, in.Env())
		if err != nil || !ok {
			return fmt.Errorf("assigned instance %q no longer satisfies predicate (%v)", inst, err)
		}
	}
	return nil
}

// rematchProperties attempts a full reallocation of every property slot.
func (m *Manager) rematchProperties(tx *txn.Tx) error {
	slots, err := m.activePropertySlots(tx, nil)
	if err != nil {
		return err
	}
	holders, err := m.tags.Holders(tx)
	if err != nil {
		return err
	}
	slotSet := make(map[string]bool, len(slots))
	for _, s := range slots {
		slotSet[s.key] = true
	}
	instances, err := m.rm.Instances(tx)
	if err != nil {
		return err
	}
	var right []*resource.Instance
	for _, in := range instances {
		if in.Status == resource.Available ||
			(in.Status == resource.Promised && slotSet[holders[in.ID]]) {
			right = append(right, in)
		}
	}
	exprs := make([]predicate.Expr, len(slots))
	initial := make([]string, len(slots))
	for i, s := range slots {
		exprs[i] = s.expr
		initial[i] = s.assigned
	}
	assignment, ok := newLazyMatcher(exprs, right).solve(initial)
	if !ok {
		return fmt.Errorf("property promises no longer jointly satisfiable")
	}
	realloc := make(map[string]string)
	for i, s := range slots {
		if assignment[i] != s.assigned {
			realloc[s.key] = assignment[i]
		}
	}
	return m.applyRealloc(tx, realloc)
}
