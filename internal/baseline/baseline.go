// Package baseline implements the two comparator regimes the paper's
// argument is framed against, for the benchmark suite:
//
//   - Locking: "traditional lock-based isolation" (§2) — the client takes
//     long-duration exclusive locks over the resources its business process
//     touches and holds them across the whole operation, including think
//     time. §9 notes the assumptions this needs ("activities run very
//     quickly and all participants can be trusted to hold locks") and its
//     deadlock problem.
//
//   - CheckThenAct: no isolation at all — the client checks availability,
//     proceeds, and discovers at action time that "concurrent activity has
//     changed the truth of relied-on conditions after they were checked"
//     (§7). This is the regime whose failure modes promises remove from
//     "the normal processing paths" (§2).
//
//   - PromiseOrders: the same order workload driven through the promise
//     manager, for symmetric comparison.
//
// All three run the paper's §7 ordering workload: secure qty units of a
// pool, perform work (organise payment, shippers — the think function),
// then purchase.
package baseline

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/txn"
)

// Outcome classifies one order attempt.
type Outcome int

// Order outcomes.
const (
	// Fulfilled: the purchase completed.
	Fulfilled Outcome = iota
	// RejectedEarly: the order stopped at the availability check — the
	// benign failure mode (customer told immediately).
	RejectedEarly
	// FailedLate: the order failed at purchase time despite a successful
	// earlier check — the failure mode promises eliminate.
	FailedLate
	// Deadlocked: the order was aborted as a deadlock victim (lock-based
	// baseline only).
	Deadlocked
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Fulfilled:
		return "fulfilled"
	case RejectedEarly:
		return "rejected-early"
	case FailedLate:
		return "failed-late"
	case Deadlocked:
		return "deadlocked"
	}
	return "unknown"
}

// Locking is the long-duration 2PL baseline: each order is a session that
// takes exclusive application locks on its pools in a lock table of its
// own and holds them across think time. The store's short transactions
// run inside the locked region.
type Locking struct {
	store *txn.Store
	rm    *resource.Manager
	locks *lockTable
	next  atomic.Uint64
}

// NewLocking returns a lock-based order runner over rm.
func NewLocking(store *txn.Store, rm *resource.Manager) *Locking {
	return &Locking{store: store, rm: rm, locks: newLockTable()}
}

// RunOrder executes one order under long-duration exclusive locks:
// lock pool → check → think → purchase → unlock.
func (b *Locking) RunOrder(pool string, qty int64, think func()) (Outcome, error) {
	return b.RunMultiOrder([]string{pool}, qty, think)
}

// RunMultiOrder locks several pools in the given order (the E4 experiment
// passes opposite orders from different clients to manufacture deadlock),
// then purchases qty from each.
func (b *Locking) RunMultiOrder(pools []string, qty int64, think func()) (Outcome, error) {
	sid := b.next.Add(1)
	defer b.locks.releaseAll(sid)
	for _, pool := range pools {
		if err := b.locks.acquire(sid, pool); err != nil {
			return Deadlocked, nil
		}
	}
	// Check availability under the locks.
	check := b.store.Begin(txn.Block)
	for _, pool := range pools {
		p, err := b.rm.Pool(check, pool)
		if err != nil {
			_ = check.Abort()
			return RejectedEarly, err
		}
		if p.OnHand < qty {
			_ = check.Abort()
			return RejectedEarly, nil
		}
	}
	if err := check.Commit(); err != nil {
		return RejectedEarly, err
	}

	if think != nil {
		think() // locks held across the long-running business step
	}

	buy := b.store.Begin(txn.Block)
	for _, pool := range pools {
		if _, err := b.rm.AdjustPool(buy, pool, -qty); err != nil {
			// Cannot happen while we hold the app lock — every well-behaved
			// client locks before touching the pool.
			_ = buy.Abort()
			return FailedLate, nil
		}
	}
	if err := buy.Commit(); err != nil {
		return FailedLate, err
	}
	return Fulfilled, nil
}

// CheckThenAct is the no-isolation baseline.
type CheckThenAct struct {
	store *txn.Store
	rm    *resource.Manager
}

// NewCheckThenAct returns a no-isolation order runner over rm.
func NewCheckThenAct(store *txn.Store, rm *resource.Manager) *CheckThenAct {
	return &CheckThenAct{store: store, rm: rm}
}

// RunOrder checks availability, thinks with no protection, then attempts
// the purchase, which re-validates inside a short transaction.
func (b *CheckThenAct) RunOrder(pool string, qty int64, think func()) (Outcome, error) {
	check := b.store.Begin(txn.Block)
	p, err := b.rm.Pool(check, pool)
	if err != nil {
		_ = check.Abort()
		return RejectedEarly, err
	}
	onHand := p.OnHand
	if err := check.Commit(); err != nil {
		return RejectedEarly, err
	}
	if onHand < qty {
		return RejectedEarly, nil
	}

	if think != nil {
		think() // nothing protects the checked condition here
	}

	buy := b.store.Begin(txn.Block)
	if _, err := b.rm.AdjustPool(buy, pool, -qty); err != nil {
		_ = buy.Abort()
		// Insufficient stock at purchase time: the paper's motivating
		// failure ("payment arrives for an accepted order when there is
		// insufficient stock on hand", §1).
		return FailedLate, nil
	}
	if err := buy.Commit(); err != nil {
		return FailedLate, err
	}
	return Fulfilled, nil
}

// PromiseOrders drives the same workload through the promise manager.
type PromiseOrders struct {
	m *core.Manager
}

// NewPromiseOrders returns a promise-based order runner.
func NewPromiseOrders(m *core.Manager) *PromiseOrders {
	return &PromiseOrders{m: m}
}

// RunOrder obtains a promise for qty of pool, thinks, then purchases under
// the promise with an atomic release (Figure 1).
func (b *PromiseOrders) RunOrder(pool string, qty int64, think func()) (Outcome, error) {
	resp, err := b.m.Execute(context.Background(), core.Request{
		Client: "order",
		PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Quantity(pool, qty)},
		}},
	})
	if err != nil {
		return RejectedEarly, err
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		return RejectedEarly, nil
	}

	if think != nil {
		think() // the promise, not a lock, protects the condition
	}

	resp, err = b.m.Execute(context.Background(), core.Request{
		Client: "order",
		Env:    []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Action: func(ac *core.ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, pool, -qty)
			return nil, err
		},
	})
	if err != nil {
		return FailedLate, err
	}
	if resp.ActionErr != nil {
		return FailedLate, nil
	}
	return Fulfilled, nil
}

// RunMultiOrder secures all pools in one atomic promise request (§4, first
// requirement), then purchases all of them.
func (b *PromiseOrders) RunMultiOrder(pools []string, qty int64, think func()) (Outcome, error) {
	preds := make([]core.Predicate, len(pools))
	for i, pool := range pools {
		preds[i] = core.Quantity(pool, qty)
	}
	resp, err := b.m.Execute(context.Background(), core.Request{
		Client:          "order",
		PromiseRequests: []core.PromiseRequest{{Predicates: preds}},
	})
	if err != nil {
		return RejectedEarly, err
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		return RejectedEarly, nil
	}
	if think != nil {
		think()
	}
	resp, err = b.m.Execute(context.Background(), core.Request{
		Client: "order",
		Env:    []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Action: func(ac *core.ActionContext) (any, error) {
			for _, pool := range pools {
				if _, err := ac.Resources.AdjustPool(ac.Tx, pool, -qty); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	})
	if err != nil {
		return FailedLate, err
	}
	if resp.ActionErr != nil {
		return FailedLate, nil
	}
	return Fulfilled, nil
}
