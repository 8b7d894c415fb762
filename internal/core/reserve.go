package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/txn"
)

// This file is the shard-side half of the two-phase reserve → confirm/abort
// grant pipeline. A cross-shard promise request cannot run as one store
// transaction (each shard owns a private store), so the grant session in
// session.go opens one Reservation per involved shard under the ordered
// shard lock set: each shard tentatively applies its slice of the request —
// releases first, then grants — inside a transaction it keeps open. The
// session then either Confirms every reservation (commit) or Aborts them
// all (rollback), so concurrent clients never observe a cross-shard grant
// half-applied, and a released promise springs back untouched when the
// grant that would have consumed it fails on another shard.
//
// Because releases apply inside the open transaction before planning, a
// §4-style upgrade ("release 5, promise 8 from the freed 5") works across
// shards exactly as it does on the single store: the freed capacity is
// visible to the shard's own planner and, through PropertyContext, to the
// session's joint property matcher.
//
// The protocol is safe without extra locking only because the caller holds
// the shard mutex of every reservation for the pipeline's whole duration —
// the reservation's open transaction is then the sole user of the shard's
// store, so it can never deadlock and its commit cannot conflict.

// ReserveRequest is one shard's slice of a cross-shard promise request.
type ReserveRequest struct {
	// Releases are the promise ids owned by this shard to hand back
	// atomically with the grant (§4, third requirement). For a composite
	// release target these are the shard's sub-promise ids.
	Releases []string
	// Predicates are the shard-bound (anonymous and named view) predicates
	// this shard must guarantee; may be empty for a shard that only
	// releases or only contributes property candidates.
	Predicates []Predicate
	// PredIdx maps Predicates back to their positions in the original
	// request, recorded on the granted part for client-order reconstruction.
	PredIdx []int
	// Duration is the requested promise duration, clamped per shard config.
	Duration time.Duration
	// MinDuration is the client's floor, as in PromiseRequest.MinDuration.
	MinDuration time.Duration
	// Priority and Preemptible carry the request's tier and spot flag, as
	// in PromiseRequest: every sub-promise of a cross-shard grant is
	// stamped with them, and a positive tier lets the shard's planner (and
	// the coordinator's joint matcher) displace lower-tier preemptible
	// holds. See preempt.go.
	Priority    int
	Preemptible bool
}

// GrantedPart describes one sub-promise created under a reservation.
type GrantedPart struct {
	// ID is the sub-promise id (shard-prefixed).
	ID string
	// PredIdx holds the original request positions of the part's predicates.
	PredIdx []int
	// Expires is when the sub-promise lapses.
	Expires time.Time
}

// PropertySlot is one active property-view predicate on a shard with its
// current tentative assignment, as input to the global matcher.
type PropertySlot struct {
	// Key identifies the slot ("<promiseID>#<idx>").
	Key string
	// Expr is the property predicate.
	Expr predicate.Expr
	// Assigned is the instance currently backing the slot ("" when none).
	Assigned string
	// Migratable marks a single-predicate property sub-promise, which the
	// coordinator may re-home on another shard (MigrateOut/MigrateIn) when
	// the joint match needs its slot on an instance elsewhere.
	Migratable bool
	// compiled is Expr's compiled form when the shard's matcher image
	// supplied it (nil otherwise: the joint matcher compiles Expr itself).
	compiled compiledPred
}

// PropertyCandidate is one instance a shard can offer the global matcher.
type PropertyCandidate struct {
	// Instance is the candidate (read under the reservation transaction;
	// do not mutate).
	Instance *resource.Instance
	// Tentative marks an instance currently backing an active property
	// slot: matching mode may rearrange it, first-fit mode may not.
	Tentative bool
}

// PropertyContext is a shard's property-matching state, read inside the
// reservation transaction so it reflects the tentatively-applied releases.
type PropertyContext struct {
	// Slots are the shard's active property slots.
	Slots []PropertySlot
	// Candidates are the instances available for property matching:
	// available ones (including those freed by this reservation's
	// releases) and tentative ones.
	Candidates []PropertyCandidate
	// image is the shard's persistent matcher state when the context was
	// served from it: it mirrors Slots and Candidates exactly, so its
	// per-value index may narrow the joint match's scans. Valid only
	// while the reservation writes nothing more.
	image *propMatcher
}

// Reservation is one shard's tentatively-applied slice of a two-phase
// grant, held open inside a store transaction until Confirm or Abort. The
// caller must hold the shard's mutex for the reservation's whole lifetime.
type Reservation struct {
	m       *shard
	tx      *txn.Tx
	st      *execState
	client  string
	start   time.Time
	granted []GrantedPart
	done    bool
	// priority and preemptible are the request's tier and spot flag,
	// stamped onto every sub-promise this reservation grants (including
	// the coordinator's pinned property grants).
	priority    int
	preemptible bool
}

// Reserve begins a reservation: it opens a transaction, sweeps expired
// promises, tentatively hands back every release target, and grants the
// shard-bound predicates. It returns exactly one of:
//
//   - a live Reservation (the tentative state is applied and held open),
//   - a rejection response (the transaction was rolled back; release
//     targets remain in force, §4),
//   - an internal error (also rolled back).
func (m *shard) Reserve(ctx context.Context, client string, rr ReserveRequest) (*Reservation, *PromiseResponse, error) {
	tx := m.store.Begin(txn.Block)
	st := &execState{}
	start := m.clk.Now()
	fail := func(err error) (*Reservation, *PromiseResponse, error) {
		_ = tx.Abort()
		for i := len(st.undoUpstream) - 1; i >= 0; i-- {
			st.undoUpstream[i]()
		}
		return nil, nil, err
	}
	reject := func(format string, args ...any) (*Reservation, *PromiseResponse, error) {
		_ = tx.Abort()
		for i := len(st.undoUpstream) - 1; i >= 0; i-- {
			st.undoUpstream[i]()
		}
		m.metrics.requests.Inc()
		m.metrics.rejections.Inc()
		m.metrics.latency.Observe(time.Since(start))
		return nil, &PromiseResponse{Reason: fmt.Sprintf(format, args...)}, nil
	}

	if err := m.sweepExpired(tx, st); err != nil {
		return fail(err)
	}
	if rr.Priority == 0 {
		rr.Priority = m.cfg.DefaultPriority
	}

	// Resolve every release target before applying any (mirroring the
	// single-store order, so duplicate targets resolve identically), then
	// hand them back inside the open transaction: the freed capacity is
	// visible to planning below, and an Abort restores it untouched.
	var rels []*Promise
	for _, rid := range rr.Releases {
		p, err := m.promiseForClient(tx, client, rid)
		if err != nil {
			return reject("release target %s: %v", rid, err)
		}
		rels = append(rels, p)
	}
	for _, p := range rels {
		if err := m.releasePromise(tx, st, p, Released); err != nil {
			return fail(err)
		}
	}

	r := &Reservation{m: m, tx: tx, st: st, client: client, start: start, priority: rr.Priority, preemptible: rr.Preemptible}
	if len(rr.Predicates) > 0 {
		duration, durReason := m.grantDuration(ctx, rr.Duration, rr.MinDuration)
		if durReason != "" {
			_, resp, _ := reject("%s", durReason)
			return nil, resp, nil
		}
		// Releases were already applied above, so plan with none pending.
		plan, reason, counter, err := m.plan(ctx, tx, st, rr.Predicates, nil, duration)
		if err != nil {
			return fail(err)
		}
		var victims []*Promise
		if plan == nil {
			// Spot-capacity fallback for the shard-bound predicates, exactly
			// as on the single store (preempt.go): victims revoked inside the
			// open reservation spring back untouched if any shard aborts.
			plan, victims, err = m.planPreempt(ctx, tx, st, rr.Predicates, nil, duration, rr.Priority)
			if err != nil {
				return fail(err)
			}
			if plan == nil {
				_, resp, _ := reject("%s", reason)
				resp.Counter = counter
				return nil, resp, nil
			}
		}
		id := m.promiseIDs.Next()
		for _, vp := range victims {
			if err := m.preemptPromise(tx, st, vp, id, rr.Priority); err != nil {
				return fail(err)
			}
		}
		prm := &Promise{
			ID:          id,
			Client:      client,
			Predicates:  append([]Predicate(nil), rr.Predicates...),
			Expires:     m.clk.Now().Add(duration),
			State:       Active,
			Priority:    rr.Priority,
			Preemptible: rr.Preemptible,
		}
		if err := m.applyGrant(tx, prm, plan); err != nil {
			return fail(err)
		}
		st.events = append(st.events, Event{
			Type: EventGranted, PromiseID: prm.ID, Client: client,
			Time: m.clk.Now(), Expires: prm.Expires,
		})
		r.granted = append(r.granted, GrantedPart{
			ID:      prm.ID,
			PredIdx: append([]int(nil), rr.PredIdx...),
			Expires: prm.Expires,
		})
	}
	return r, nil, nil
}

// propertySlotHolder reports whether inst is currently promised to an
// active property-view slot — the §5 tentative-allocation state the global
// matcher may rearrange or migrate. It reads the latest committed store
// snapshot; the caller must hold the shard's lock when the answer gates a
// mutation (the lock keeps the snapshot from going stale underneath the
// decision). Missing instances, named holds and lapsed holders all report
// false (the grant path then handles them exactly as the single store
// would).
func (m *shard) propertySlotHolder(inst string) (bool, error) {
	snap := m.store.Snapshot()
	in, err := m.rm.Instance(snap, inst)
	if errors.Is(err, txn.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if in.Status != resource.Promised {
		return false, nil
	}
	holder, err := m.tags.Holder(snap, inst)
	if err != nil {
		return false, err
	}
	pid, idx, ok := parseSlotKey(holder)
	if !ok {
		return false, nil
	}
	p, err := m.promise(snap, pid)
	if err != nil {
		if errors.Is(err, ErrPromiseNotFound) {
			return false, nil
		}
		return false, err
	}
	if p.State != Active || !m.clk.Now().Before(p.Expires) {
		return false, nil
	}
	return idx < len(p.Predicates) && p.Predicates[idx].View == PropertyView, nil
}

// MigrateOut detaches a single-predicate property sub-promise from this
// shard as the first half of a cross-shard reallocation: the slot's tag is
// released and the promise row removed, inside the reservation
// transaction. The caller re-homes the returned row with MigrateIn on the
// destination shard; an abort of either reservation restores everything.
func (r *Reservation) MigrateOut(promiseID string) (*Promise, error) {
	m := r.m
	p, err := m.promise(r.tx, promiseID)
	if err != nil {
		return nil, err
	}
	if p.State != Active || len(p.Predicates) != 1 || p.Predicates[0].View != PropertyView {
		return nil, fmt.Errorf("core: promise %s is not a migratable property slot", promiseID)
	}
	slot := slotKey(p.ID, 0)
	if inst := p.Assigned[0]; inst != "" {
		holder, err := m.tags.Holder(r.tx, inst)
		if err != nil {
			return nil, err
		}
		if holder == slot {
			if err := m.tags.Release(r.tx, inst, slot); err != nil {
				return nil, err
			}
		}
	}
	if err := r.tx.Delete(TablePromises, p.ID); err != nil {
		return nil, err
	}
	return p, nil
}

// MigrateIn adopts a property sub-promise migrated out of another shard,
// pinning it to inst on this shard. The promise keeps its id, client,
// predicate and expiry — only its backing instance (and owning store)
// change.
func (r *Reservation) MigrateIn(p *Promise, inst string) error {
	m := r.m
	if err := m.tags.Acquire(r.tx, inst, slotKey(p.ID, 0)); err != nil {
		return fmt.Errorf("core: migration of %s to %q failed: %w", p.ID, inst, err)
	}
	p.Assigned[0] = inst
	return m.putPromise(r.tx, p)
}

// PropertyContext reads the shard's property-matching state under the
// reservation transaction.
//
// When the reservation has written nothing (no releases applied, no sweep
// activity), the committed state the persistent matcher mirrors is exactly
// the transaction's view, so the context is served from propmatch.go — no
// row clones, no classification pass, slot predicates already compiled,
// and the image itself attached for its index. The consistency argument is
// the file comment of propmatch.go; a reservation that released anything
// falls back to the scans, which see the tentatively-freed instances.
func (r *Reservation) PropertyContext() (*PropertyContext, error) {
	m := r.m
	if !m.cfg.disableFastPath && m.cfg.PropertyMode == MatchingMode && r.tx.Writes() == 0 {
		pm := &m.pmatch
		out := &PropertyContext{
			Slots:      make([]PropertySlot, 0, len(pm.slotList)),
			Candidates: make([]PropertyCandidate, 0, len(pm.candList)),
			image:      pm,
		}
		for _, se := range pm.slotList {
			out.Slots = append(out.Slots, PropertySlot{Key: se.key, Expr: se.expr, Assigned: se.assigned, Migratable: se.sole, compiled: se.compiled})
		}
		for _, ce := range pm.candList {
			out.Candidates = append(out.Candidates, PropertyCandidate{Instance: ce.inst, Tentative: ce.tentative})
		}
		return out, nil
	}
	slots, err := m.activePropertySlots(r.tx, nil)
	if err != nil {
		return nil, err
	}
	slotSet := make(map[string]bool, len(slots))
	out := &PropertyContext{}
	for _, s := range slots {
		slotSet[s.key] = true
		out.Slots = append(out.Slots, PropertySlot{Key: s.key, Expr: s.expr, Assigned: s.assigned, Migratable: s.sole})
	}
	instances, err := m.rm.Instances(r.tx)
	if err != nil {
		return nil, err
	}
	holders, err := m.tags.Holders(r.tx)
	if err != nil {
		return nil, err
	}
	for _, in := range instances {
		switch {
		case in.Status == resource.Available:
			out.Candidates = append(out.Candidates, PropertyCandidate{Instance: in})
		case in.Status == resource.Promised && slotSet[holders[in.ID]]:
			out.Candidates = append(out.Candidates, PropertyCandidate{Instance: in, Tentative: true})
		}
	}
	return out, nil
}

// ApplyRealloc moves existing property slots to the instances the global
// matcher chose (keys as in PropertySlot.Key, values instance ids on this
// shard), inside the reservation transaction.
func (r *Reservation) ApplyRealloc(realloc map[string]string) error {
	return r.m.applyRealloc(r.tx, realloc)
}

// GrantPinned creates a sub-promise whose predicates are bound to exact
// instances chosen by the global matcher. assign[i] backs preds[i]; predIdx
// maps preds back to the original request. Call ApplyRealloc first when the
// match displaced existing slots, so the pinned instances are free.
func (r *Reservation) GrantPinned(preds []Predicate, predIdx []int, assign []string, d time.Duration) error {
	m := r.m
	prm := &Promise{
		ID:          m.promiseIDs.Next(),
		Client:      r.client,
		Predicates:  append([]Predicate(nil), preds...),
		Expires:     m.clk.Now().Add(m.clampDuration(d)),
		State:       Active,
		Assigned:    append([]string(nil), assign...),
		Priority:    r.priority,
		Preemptible: r.preemptible,
	}
	prm.DelegatedQty = make([]int64, len(preds))
	prm.DelegatedID = make([]string, len(preds))
	for i := range preds {
		if err := m.tags.Acquire(r.tx, assign[i], slotKey(prm.ID, i)); err != nil {
			return fmt.Errorf("core: pinned grant of %s to %q failed: %w", preds[i], assign[i], err)
		}
	}
	if err := m.putPromise(r.tx, prm); err != nil {
		return err
	}
	r.st.events = append(r.st.events, Event{
		Type: EventGranted, PromiseID: prm.ID, Client: r.client,
		Time: m.clk.Now(), Expires: prm.Expires,
	})
	r.granted = append(r.granted, GrantedPart{
		ID:      prm.ID,
		PredIdx: append([]int(nil), predIdx...),
		Expires: prm.Expires,
	})
	return nil
}

// Granted lists the sub-promises created under this reservation. They exist
// only if Confirm succeeds.
func (r *Reservation) Granted() []GrantedPart { return r.granted }

// Preempt revokes the given active promises on this shard inside the
// reservation transaction, on behalf of a cross-shard grant at tier
// byPriority: the coordinator applies the jointly selected victim set
// through the open reservations, so the revocations commit atomically with
// the grant and an abort anywhere restores every victim. Non-active ids
// are skipped (a concurrent expiry sweep may have lapsed one). The
// displacing promise id is stamped afterwards via StampPreemptedBy, once
// the pinned grants exist.
func (r *Reservation) Preempt(ids []string, byPriority int) error {
	for _, id := range ids {
		p, err := r.m.promise(r.tx, id)
		if err != nil {
			return err
		}
		if p.State != Active {
			continue
		}
		if err := r.m.preemptPromise(r.tx, r.st, p, "", byPriority); err != nil {
			return err
		}
	}
	return nil
}

// StampPreemptedBy fills the displacing promise id into this reservation's
// pending EventPreempted records that lack one (left empty by Preempt
// because the displacing sub-promise did not exist yet). Events publish at
// Confirm, so the annotation lands before any watcher can observe them.
func (r *Reservation) StampPreemptedBy(by string) {
	for i := range r.st.events {
		if r.st.events[i].Type == EventPreempted && r.st.events[i].By == "" {
			r.st.events[i].By = by
		}
	}
}

// Confirm commits the reservation: the tentative releases and grants take
// effect and the shard's counters record the work. It reports a latched
// append failure; the entry point that drove the session syncs the log
// once it has released its shard locks.
func (r *Reservation) Confirm() error {
	if r.done {
		return fmt.Errorf("core: reservation already finished")
	}
	r.done = true
	m := r.m
	m.pubMu.Lock()
	if err := r.tx.Commit(); err != nil {
		m.pubMu.Unlock()
		for i := len(r.st.undoUpstream) - 1; i >= 0; i-- {
			r.st.undoUpstream[i]()
		}
		return err
	}
	m.bus.publish(r.st.events...)
	m.pubMu.Unlock()
	durErr := m.durable.latched()
	for _, f := range r.st.postCommit {
		f()
	}
	m.metrics.requests.Inc()
	m.metrics.grants.Add(int64(len(r.granted)))
	m.metrics.releases.Add(r.st.released)
	m.metrics.expirations.Add(r.st.expired)
	m.metrics.preemptions.Add(r.st.preempted)
	m.metrics.latency.Observe(time.Since(r.start))
	for _, g := range r.granted {
		m.trackExpiry(g.ID, g.Expires)
	}
	if len(r.st.sweptDue) > 0 {
		m.exp.removeDue(m.clk.Now(), r.st.sweptDue)
	}
	if durErr != nil {
		return fmt.Errorf("core: commit not durable: %w", durErr)
	}
	return nil
}

// Abort rolls the reservation back: the store transaction is aborted (so
// releases spring back into force and grants vanish) and upstream promises
// acquired during planning are compensated.
func (r *Reservation) Abort() {
	if r.done {
		return
	}
	r.done = true
	_ = r.tx.Abort()
	for i := len(r.st.undoUpstream) - 1; i >= 0; i-- {
		r.st.undoUpstream[i]()
	}
	r.m.metrics.requests.Inc()
	r.m.metrics.latency.Observe(time.Since(r.start))
}
