package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/txn"
)

func TestEmptyRequestIsNoOp(t *testing.T) {
	m, _ := newManager(t, Config{})
	resp, err := m.Execute(bg, Request{Client: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Promises) != 0 || resp.ActionErr != nil || resp.ActionResult != nil {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestModifySwapNamedInstance(t *testing.T) {
	// Atomic modify where the new promise needs the instance freed by the
	// released one — the named-view flavour of §4's third requirement.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreateInstance(tx, "room-1", nil); err != nil {
			return err
		}
		return rm.CreateInstance(tx, "room-2", nil)
	})
	pr := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("room-1")},
	}}})
	// Swap to a two-room promise including the currently held room.
	both := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("room-1"), Named("room-2")},
		Releases:   []string{pr.PromiseID},
	}}})
	if !both.Accepted {
		t.Fatalf("swap rejected: %s", both.Reason)
	}
	info, _ := m.PromiseInfo(both.PromiseID)
	if info.Assigned[0] != "room-1" || info.Assigned[1] != "room-2" {
		t.Fatalf("assigned = %v", info.Assigned)
	}
	rep, err := m.Audit()
	if err != nil || !rep.Healthy() {
		t.Fatalf("audit: %v %s", err, rep)
	}
}

func TestModifyDuplicateReleaseIDs(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "p", 4))
	// Listing the same release twice must not double-free capacity.
	up := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 10)},
		Releases:   []string{pr.PromiseID, pr.PromiseID},
	}}})
	if !up.Accepted {
		t.Fatalf("swap rejected: %s", up.Reason)
	}
	rep, err := m.Audit()
	if err != nil || !rep.Healthy() {
		t.Fatalf("audit: %v %s", err, rep)
	}
	// And nothing is left over.
	if probe := grantOne(t, m, requestQuantity("c", "p", 1)); probe.Accepted {
		t.Fatal("double-free leaked capacity")
	}
}

func TestDelegatedPromiseViolationRollsBack(t *testing.T) {
	// A violating action on a manager that holds delegated promises: the
	// rollback must leave the upstream promise untouched and active.
	distributor, _ := newManager(t, Config{})
	seed(t, distributor, func(tx *txn.Tx) error {
		return distributor.only().rm.CreatePool(tx, "w", 10, nil)
	})
	merchant, _ := newManager(t, Config{
		Suppliers: map[string]Supplier{"w": &engineSupplier{m: distributor, client: "m"}},
	})
	seed(t, merchant, func(tx *txn.Tx) error {
		return merchant.only().rm.CreatePool(tx, "w", 3, nil)
	})
	pr := grantOne(t, merchant, requestQuantity("c", "w", 8)) // 3 local + 5 delegated
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	resp, err := merchant.Execute(bg, Request{
		Client: "rogue",
		Action: func(ac *ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, "w", -2)
			return nil, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseViolated) {
		t.Fatalf("ActionErr = %v", resp.ActionErr)
	}
	info, _ := merchant.PromiseInfo(pr.PromiseID)
	up, err := distributor.PromiseInfo(info.DelegatedID[0])
	if err != nil {
		t.Fatal(err)
	}
	if up.State != Active {
		t.Fatalf("upstream state = %v after local rollback", up.State)
	}
}

func TestPropertyPromiseOverStatusBuiltin(t *testing.T) {
	// Predicates can reference the builtin "status"/"id" properties; a
	// request for an instance that is available by its builtin works.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreateInstance(tx, "x-1", nil)
	})
	pr := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{MustProperty(`id = "x-1"`)},
	}}})
	if !pr.Accepted {
		t.Fatalf("rejected: %s", pr.Reason)
	}
	info, _ := m.PromiseInfo(pr.PromiseID)
	if info.Assigned[0] != "x-1" {
		t.Fatalf("assigned = %v", info.Assigned)
	}
}

func TestActionResultTypesPreserved(t *testing.T) {
	m, _ := newManager(t, Config{})
	resp, err := m.Execute(bg, Request{Client: "c", Action: func(ac *ActionContext) (any, error) {
		return map[string]int{"a": 1}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := resp.ActionResult.(map[string]int)
	if !ok || got["a"] != 1 {
		t.Fatalf("ActionResult = %#v", resp.ActionResult)
	}
}

func TestReleaseIdempotenceViaState(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "p", 5))
	if _, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	resp, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseReleased) {
		t.Fatalf("double release: %v", resp.ActionErr)
	}
	// Capacity freed exactly once.
	if probe := grantOne(t, m, requestQuantity("c", "p", 10)); !probe.Accepted {
		t.Fatalf("capacity wrong after release: %s", probe.Reason)
	}
}

func TestInstanceDeletedUnderPromise(t *testing.T) {
	// An action deletes a promised instance outright (catastrophic §2
	// "accident might damage previously-promised stock"): the post-check
	// flags it and rolls back.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreateInstance(tx, "vase", nil)
	})
	pr := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("vase")},
	}}})
	resp, err := m.Execute(bg, Request{Client: "clumsy", Action: func(ac *ActionContext) (any, error) {
		return nil, ac.Tx.Delete(resource.TableInstances, "vase")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseViolated) {
		t.Fatalf("ActionErr = %v", resp.ActionErr)
	}
	// The vase survives (rolled back) and the promise is intact.
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	if _, err := m.only().rm.Instance(tx, "vase"); err != nil {
		t.Fatalf("vase gone: %v", err)
	}
	info, _ := m.PromiseInfo(pr.PromiseID)
	if info.State != Active {
		t.Fatalf("promise state = %v", info.State)
	}
}

func TestZeroDurationUsesDefaultAndExpires(t *testing.T) {
	m, fake := newManager(t, Config{DefaultDuration: 10 * time.Second})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 5, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "p", 5))
	fake.Advance(11 * time.Second)
	if probe := grantOne(t, m, requestQuantity("c", "p", 5)); !probe.Accepted {
		t.Fatalf("default duration not applied: %s (expires %v)", probe.Reason, pr.Expires)
	}
}

func TestManyPredicatesOnePromise(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		for i := 0; i < 10; i++ {
			if err := rm.CreatePool(tx, poolName(i), 5, nil); err != nil {
				return err
			}
			if err := rm.CreateInstance(tx, instName(i), map[string]predicate.Value{
				"k": predicate.Int(int64(i)),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	var preds []Predicate
	for i := 0; i < 10; i++ {
		preds = append(preds, Quantity(poolName(i), 2), Named(instName(i)))
	}
	pr := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{Predicates: preds}}})
	if !pr.Accepted {
		t.Fatalf("20-predicate promise rejected: %s", pr.Reason)
	}
	info, _ := m.PromiseInfo(pr.PromiseID)
	if len(info.Predicates) != 20 || len(info.Assigned) != 20 {
		t.Fatalf("sizes: %d %d", len(info.Predicates), len(info.Assigned))
	}
	if _, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Audit()
	if err != nil || !rep.Healthy() {
		t.Fatalf("audit: %v %s", err, rep)
	}
}

func poolName(i int) string { return "pool-" + string(rune('a'+i)) }
func instName(i int) string { return "inst-" + string(rune('a'+i)) }

func TestActionErrorRunsOnceAndIsReported(t *testing.T) {
	// Each store admits one transaction at a time, so nothing inside an
	// action can deadlock: Execute runs the action exactly once and reports
	// its error to the client, whatever the error wraps.
	m, _ := newManager(t, Config{})
	attempts := 0
	failure := errors.New("row busy")
	resp, err := m.Execute(bg, Request{Client: "c", Action: func(ac *ActionContext) (any, error) {
		attempts++
		return nil, failure
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, failure) || attempts != 1 {
		t.Fatalf("ActionErr=%v attempts=%d, want the action's error after one run", resp.ActionErr, attempts)
	}
	if st := m.Stats(); st.ActionErrors != 1 || st.DeadlockRetries != 0 {
		t.Fatalf("stats: actionErrs=%d deadlockRetries=%d, want 1 and 0", st.ActionErrors, st.DeadlockRetries)
	}
}

func TestTerminalPromisesLeaveScannedTable(t *testing.T) {
	// Regression: released/expired promises must move out of the scanned
	// promise table, or every request's sweep becomes linear in history
	// (quadratic workloads overall).
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 100, nil)
	})
	var lastReleased, lastExpired string
	for i := 0; i < 20; i++ {
		pr := grantOne(t, m, requestQuantity("c", "p", 1))
		if i%2 == 0 {
			if _, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
				t.Fatal(err)
			}
			lastReleased = pr.PromiseID
		} else {
			lastExpired = pr.PromiseID
		}
	}
	fake.Advance(2 * time.Minute)
	counts := map[string]int{}
	tx := m.only().store.Begin(txn.Block)
	for _, tbl := range []string{TablePromises, TablePromisesDone} {
		if err := tx.Scan(tbl, func(string, txn.Row) bool {
			counts[tbl]++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Commit()
	if counts[TablePromises] != 0 {
		t.Fatalf("scanned table still holds %d terminal promises", counts[TablePromises])
	}
	if counts[TablePromisesDone] != 20 {
		t.Fatalf("done table holds %d rows, want 20", counts[TablePromisesDone])
	}
	// Terminal promises remain queryable with precise errors.
	if _, err := m.only().promiseForClientProbe("c", lastReleased); !errors.Is(err, ErrPromiseReleased) {
		t.Fatalf("released probe: %v", err)
	}
	if _, err := m.only().promiseForClientProbe("c", lastExpired); !errors.Is(err, ErrPromiseExpired) {
		t.Fatalf("expired probe: %v", err)
	}
}

// promiseForClientProbe runs promiseForClient in a scratch transaction.
func (m *shard) promiseForClientProbe(client, id string) (*Promise, error) {
	tx := m.store.Begin(txn.Block)
	defer tx.Commit()
	return m.promiseForClient(tx, client, id)
}
