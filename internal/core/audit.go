package core

import (
	"fmt"

	"repro/internal/txn"
)

// AuditReport summarises a consistency audit of the promise manager's
// state. A healthy system yields an empty Problems slice after any sequence
// of operations — soak tests and operators rely on this.
type AuditReport struct {
	// ActivePromises is the number of live promises at audit time.
	ActivePromises int
	// Slots is the number of predicate slots across live promises.
	Slots int
	// Problems lists every inconsistency found; empty means healthy.
	Problems []string
}

// Healthy reports whether the audit found no problems.
func (r *AuditReport) Healthy() bool { return len(r.Problems) == 0 }

// String renders the report.
func (r *AuditReport) String() string {
	if r.Healthy() {
		return fmt.Sprintf("audit: healthy (%d active promises, %d slots)", r.ActivePromises, r.Slots)
	}
	return fmt.Sprintf("audit: %d problems over %d active promises: %v",
		len(r.Problems), r.ActivePromises, r.Problems)
}

// Audit checks every cross-structure invariant the design relies on (§8:
// "status information for a single set of resources is now distributed
// between the promise and resource managers, and special care will be
// needed to ensure consistency"):
//
//  1. escrow: per pool, sum(reservations) <= quantity on hand;
//  2. soft locks: tag table and instance statuses agree;
//  3. every active promise's instance slots are healthy (instance
//     promised, held by the slot, property predicate still satisfied or
//     repairable);
//  4. every escrow reservation and soft-lock holder belongs to a live
//     promise slot (no leaked holds from released/expired promises).
//
// Audit reads one immutable committed store snapshot and acquires no lock
// at all, so it can run continuously against a loaded manager without
// slowing a single grant. Consistency model: the snapshot is a
// transactionally consistent point-in-time state — invariants are judged
// against exactly one commit boundary, never a torn mix. Promises whose
// deadline has passed but whose expiry transaction has not yet committed
// still count as live (their holds are still transactionally present; the
// deadline alarm lapses them independently), so the audit never reports
// their backing as leaked.
func (m *shard) Audit() (*AuditReport, error) {
	snap := m.store.Snapshot()
	report := &AuditReport{}
	problem := func(format string, args ...any) {
		report.Problems = append(report.Problems, fmt.Sprintf(format, args...))
	}

	// 1. Escrow invariant per pool. Every escrow row is read once, here;
	// steps 3 and 4b judge reservations against the same holdings.
	holdings, err := m.ledger.Holdings(snap)
	if err != nil {
		return nil, err
	}
	if err := m.ledger.CheckHoldings(snap, holdings); err != nil {
		problem("escrow: %v", err)
	}
	// 2. Tag/instance agreement.
	if err := m.tags.CheckInvariant(snap); err != nil {
		problem("softlock: %v", err)
	}

	// 3+4. Walk live promises; collect the slots that legitimately hold
	// resources. Liveness here is transactional (state Active), not
	// wall-clock: a deadline that has passed without its expiry commit yet
	// leaves the holds in place, and they are not leaks.
	var promises []Promise
	err = snap.Scan(TablePromises, func(_ string, row txn.Row) bool {
		p := row.(*promiseRow).p
		if p.State == Active {
			promises = append(promises, p)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	report.ActivePromises = len(promises)
	liveSlots := make(map[string]bool)
	liveAnonSlots := make(map[string]map[string]bool) // pool -> slots
	for _, p := range promises {
		for i, pred := range p.Predicates {
			report.Slots++
			slot := slotKey(p.ID, i)
			liveSlots[slot] = true
			switch pred.View {
			case AnonymousView:
				set := liveAnonSlots[pred.Pool]
				if set == nil {
					set = make(map[string]bool)
					liveAnonSlots[pred.Pool] = set
				}
				set[slot] = true
				// Local reservation + delegated quantity must cover Qty.
				q := holdings.Reserved(pred.Pool, slot)
				deleg := int64(0)
				if i < len(p.DelegatedQty) {
					deleg = p.DelegatedQty[i]
				}
				if q+deleg != pred.Qty {
					problem("promise %s slot %d: reserved %d + delegated %d != promised %d",
						p.ID, i, q, deleg, pred.Qty)
				}
			case NamedView, PropertyView:
				var expr = pred.Expr
				if pred.View == NamedView {
					expr = nil
				}
				if err := m.slotHealthy(snap, p.assignedAt(i), slot, expr); err != nil {
					problem("promise %s slot %d: %v", p.ID, i, err)
				}
			}
		}
	}

	// 4a. Leaked soft-lock holders.
	holders, err := m.tags.Holders(snap)
	if err != nil {
		return nil, err
	}
	for inst, holder := range holders {
		if !liveSlots[holder] {
			problem("softlock: instance %q held by dead slot %q", inst, holder)
		}
	}
	// 4b. Leaked escrow reservations: re-derive per-pool totals from live
	// slots and compare with the ledger.
	pools, err := m.rm.Pools(snap)
	if err != nil {
		return nil, err
	}
	for _, pool := range pools {
		total := holdings.Total(pool.ID)
		var live int64
		for slot := range liveAnonSlots[pool.ID] {
			live += holdings.Reserved(pool.ID, slot)
		}
		if total != live {
			problem("escrow: pool %q has %d reserved but only %d owned by live promises",
				pool.ID, total, live)
		}
	}
	return report, nil
}
