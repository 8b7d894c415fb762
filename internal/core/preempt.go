package core

import (
	"context"
	"strings"
	"time"

	"repro/internal/preemption"
	"repro/internal/txn"
)

// This file is the engine side of priority tiers and preemptible ("spot")
// promises. A request carries a Priority (tier, default 0 or the manager's
// DefaultPriority) and may mark its grant Preemptible. When the planner
// finds no feasible assignment for a positive-tier request, the manager
// gathers the active promises the request may displace — strictly lower
// tier AND preemptible — and asks preemption.Select for an
// inclusion-minimal victim set whose revocation restores feasibility
// (oldest deadline loses first). Victims are revoked through the normal
// release path inside the same transaction as the grant, so an abort
// restores every victim untouched, and each victim's lifecycle emits an
// EventPreempted naming the displacing promise and its tier.
//
// Tier 0 (the default) never displaces anything: only requests that ask
// for a positive priority pay the preemption scan, and an equal-tier
// request never preempts (eligibility is strictly lower priority).

// preemptSig is a candidate's engine-independent predicate signature: the
// canonical source text of its predicates, joined. Selection tie-breaks on
// it so engines that shard the same world differently pick the same
// victims (see internal/preemption).
func preemptSig(p *Promise) string {
	parts := make([]string, len(p.Predicates))
	for i, pred := range p.Predicates {
		parts[i] = pred.String()
	}
	return strings.Join(parts, " & ")
}

// preemptCandidates lists the active promises a request at tier prio may
// displace, alongside their rows, skipping ids in excluded (the request's
// own release targets). The engine-level filter (set by New to keep
// composite members out) applies last.
func (m *shard) preemptCandidates(r txn.Reader, prio int, excluded map[string]bool) ([]preemption.Candidate, map[string]*Promise, error) {
	act, err := m.activePromises(r)
	if err != nil {
		return nil, nil, err
	}
	var cands []preemption.Candidate
	byID := make(map[string]*Promise)
	for i := range act {
		p := &act[i]
		if !p.Preemptible || p.Priority >= prio || excluded[p.ID] {
			continue
		}
		if !m.preemptFilter(p.ID) {
			continue
		}
		cands = append(cands, preemption.Candidate{
			ID: p.ID, Priority: p.Priority, Expires: p.Expires,
			Client: p.Client, Sig: preemptSig(p),
		})
		byID[p.ID] = p
	}
	return cands, byID, nil
}

// planPreempt retries a rejected plan with preemption: it selects a
// minimal victim set among the eligible lower-tier preemptible holds
// (non-mutating trial plans with the victims treated as released) and
// returns the plan their revocation enables, plus the victims. A nil plan
// with nil error means preemption cannot help either; the caller rejects
// with the original reason.
func (m *shard) planPreempt(ctx context.Context, tx *txn.Tx, st *execState, preds []Predicate, releases []*Promise, d time.Duration, prio int) (*grantPlan, []*Promise, error) {
	if prio <= 0 {
		return nil, nil, nil
	}
	excluded := make(map[string]bool, len(releases))
	for _, rp := range releases {
		excluded[rp.ID] = true
	}
	cands, byID, err := m.preemptCandidates(tx, prio, excluded)
	if err != nil || len(cands) == 0 {
		return nil, nil, err
	}
	trial := func(set []preemption.Candidate) (bool, error) {
		freed := make([]*Promise, 0, len(releases)+len(set))
		freed = append(freed, releases...)
		for _, c := range set {
			freed = append(freed, byID[c.ID])
		}
		// A fresh state per trial: upstream promises a trial plan acquires
		// are compensated immediately — only the final plan's acquisitions
		// may outlive this call (registered on st below).
		ts := &execState{}
		plan, _, _, err := m.planInner(ctx, tx, ts, preds, freed, d)
		for i := len(ts.undoUpstream) - 1; i >= 0; i-- {
			ts.undoUpstream[i]()
		}
		return err == nil && plan != nil, err
	}
	victims, err := preemption.Select(cands, trial)
	if err != nil || victims == nil {
		return nil, nil, err
	}
	freed := append([]*Promise(nil), releases...)
	vps := make([]*Promise, len(victims))
	for i, c := range victims {
		vps[i] = byID[c.ID]
		freed = append(freed, vps[i])
	}
	plan, _, _, err := m.plan(ctx, tx, st, preds, freed, d)
	if err != nil || plan == nil {
		// The oracle accepted this exact set, so a miss here is an internal
		// inconsistency; fail closed as an ordinary rejection.
		return nil, nil, err
	}
	return plan, vps, nil
}

// preemptPromise revokes p on behalf of the displacing promise: the normal
// release path frees its holds and parks the row (state Preempted), and
// the emitted EventPreempted is annotated with the displacing promise id
// and tier so the victim's watcher knows what displaced it. by may be
// empty when the displacing sub-promise does not exist yet (cross-shard
// property preemption); Reservation.StampPreemptedBy fills it in before
// the events publish.
func (m *shard) preemptPromise(tx *txn.Tx, st *execState, p *Promise, by string, byPriority int) error {
	mark := len(st.events)
	if err := m.releasePromise(tx, st, p, Preempted); err != nil {
		return err
	}
	for i := mark; i < len(st.events); i++ {
		if st.events[i].Type == EventPreempted && st.events[i].PromiseID == p.ID {
			st.events[i].By = by
			st.events[i].Priority = byPriority
		}
	}
	return nil
}

// preempt is the session's spot-capacity fallback for the joint property
// match: when solve finds no assignment for a positive-tier request, the
// session selects a minimal victim set across every reserved shard and
// applies it through the open reservations, so the revocations commit
// atomically with the grant — or roll back with it, restoring every
// victim.
//
// Trials are non-mutating from the pipeline's point of view: each trial
// revokes its candidate set under per-shard transaction savepoints,
// re-solves the joint match, and rolls the savepoints back. The session
// must have reserved every shard (the victims that can restore
// feasibility may hold instances anywhere), which is why grantCross
// escalates to the full lock set and reserveRest first.
func (g *grantSession) preempt() (*JointPlan, bool, error) {
	s, resvs, prio := g.s, g.resvs, g.spec.Priority
	victimShard := make(map[string]int)
	var cands []preemption.Candidate
	for _, sh := range sortedKeys(resvs) {
		cs, _, err := s.shards[sh].preemptCandidates(resvs[sh].tx, prio, nil)
		if err != nil {
			return nil, false, err
		}
		for _, c := range cs {
			victimShard[c.ID] = sh
		}
		cands = append(cands, cs...)
	}
	if len(cands) == 0 {
		return nil, false, nil
	}
	trial := func(set []preemption.Candidate) (bool, error) {
		marks := make(map[int]txn.Savepoint)
		apply := func() (bool, error) {
			scratch := make(map[int]*execState)
			for _, c := range set {
				sh := victimShard[c.ID]
				if _, seen := marks[sh]; !seen {
					marks[sh] = resvs[sh].tx.Savepoint()
					scratch[sh] = &execState{}
				}
				m := s.shards[sh]
				// Reload the row inside the trial: a savepoint rollback
				// restores the store, not any copy a prior trial mutated.
				p, err := m.promise(resvs[sh].tx, c.ID)
				if err != nil {
					return false, err
				}
				if err := m.releasePromise(resvs[sh].tx, scratch[sh], p, Preempted); err != nil {
					return false, err
				}
			}
			_, ok, err := g.solve()
			return ok, err
		}
		ok, err := apply()
		for _, sh := range sortedKeys(marks) {
			if rerr := resvs[sh].tx.RollbackTo(marks[sh]); rerr != nil && err == nil {
				ok, err = false, rerr
			}
		}
		return ok, err
	}
	victims, err := preemption.Select(cands, trial)
	if err != nil || victims == nil {
		return nil, false, err
	}
	byShard := make(map[int][]string)
	for _, c := range victims {
		byShard[victimShard[c.ID]] = append(byShard[victimShard[c.ID]], c.ID)
	}
	for _, sh := range sortedKeys(byShard) {
		if err := resvs[sh].Preempt(byShard[sh], prio); err != nil {
			return nil, false, err
		}
	}
	g.preempted = true
	plan, ok, err := g.solve()
	if err != nil || !ok {
		// The oracle accepted this exact set; fail closed so the pipeline
		// aborts and the victims spring back.
		return nil, false, err
	}
	return plan, true, nil
}
