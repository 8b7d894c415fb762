package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/txn"
)

// newManager builds a manager on a fake clock with a seeded RM.
func newManager(t *testing.T, cfg Config) (*Manager, *clock.Fake) {
	t.Helper()
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	if cfg.Clock == nil {
		cfg.Clock = fake
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, fake
}

// seed runs f in its own committed transaction.
func seed(t *testing.T, m *Manager, f func(tx *txn.Tx) error) {
	t.Helper()
	tx := m.only().store.Begin(txn.Block)
	if err := f(tx); err != nil {
		_ = tx.Abort()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func requestQuantity(client, pool string, qty int64) Request {
	return Request{
		Client: client,
		PromiseRequests: []PromiseRequest{{
			RequestID:  "req-" + pool,
			Predicates: []Predicate{Quantity(pool, qty)},
		}},
	}
}

func grantOne(t *testing.T, m *Manager, req Request) PromiseResponse {
	t.Helper()
	resp, err := m.Execute(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Promises) != 1 {
		t.Fatalf("got %d promise responses, want 1", len(resp.Promises))
	}
	return resp.Promises[0]
}

// --- Figure 1: the ordering process (§7). ---

func TestFigure1AcceptPath(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "pink-widgets", 10, nil)
	})

	// "Send promise request that (quantity of 'pink widgets' >= 5)".
	pr := grantOne(t, m, requestQuantity("order-process", "pink-widgets", 5))
	if !pr.Accepted {
		t.Fatalf("promise rejected: %s", pr.Reason)
	}
	if pr.Correlation != "req-pink-widgets" {
		t.Fatalf("correlation = %q", pr.Correlation)
	}

	// Concurrent orders may still sell the other 5...
	pr2 := grantOne(t, m, requestQuantity("other-order", "pink-widgets", 5))
	if !pr2.Accepted {
		t.Fatalf("second promise rejected: %s", pr2.Reason)
	}
	// ...but not more.
	pr3 := grantOne(t, m, requestQuantity("third-order", "pink-widgets", 1))
	if pr3.Accepted {
		t.Fatal("third promise should be rejected: all stock promised")
	}

	// "Send 'purchase stock' request to promise manager and release
	// promise to keep stock level >= 5": the purchase and release form an
	// atomic unit.
	resp, err := m.Execute(bg, Request{
		Client: "order-process",
		Env:    []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Action: func(ac *ActionContext) (any, error) {
			// "Release 5 pink widgets for delivery; Reduce stock-on-hand by 5".
			_, err := ac.Resources.AdjustPool(ac.Tx, "pink-widgets", -5)
			return "shipped", err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatalf("purchase failed: %v", resp.ActionErr)
	}
	if resp.ActionResult != "shipped" {
		t.Fatalf("action result = %v", resp.ActionResult)
	}
	// "Remove this promise from the set of predicates over the pink widget
	// stock level."
	info, err := m.PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != Released {
		t.Fatalf("promise state = %v, want released", info.State)
	}
	// order-2's promise of 5 still holds over the remaining 5 units.
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	p, err := m.only().rm.Pool(tx, "pink-widgets")
	if err != nil {
		t.Fatal(err)
	}
	if p.OnHand != 5 {
		t.Fatalf("on hand = %d, want 5", p.OnHand)
	}
}

func TestFigure1RejectPath(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "pink-widgets", 3, nil)
	})
	// "Reject promise request if <5 units available."
	pr := grantOne(t, m, requestQuantity("order-process", "pink-widgets", 5))
	if pr.Accepted {
		t.Fatal("promise should be rejected with 3 units on hand")
	}
	if pr.Reason == "" {
		t.Fatal("rejection should carry a reason")
	}
	if pr.PromiseID != "" {
		t.Fatal("rejected response should have no promise id")
	}
}

// --- Basic request validation. ---

func TestExecuteValidation(t *testing.T) {
	m, _ := newManager(t, Config{})
	if _, err := m.Execute(bg, Request{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("missing client: %v", err)
	}
	resp, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Promises[0].Accepted {
		t.Fatal("empty predicate list accepted")
	}
	resp, err = m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("", 5)},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Promises[0].Accepted {
		t.Fatal("invalid predicate accepted")
	}
	resp, err = m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", -2)},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Promises[0].Accepted {
		t.Fatal("negative quantity accepted")
	}
}

func TestMissingPoolRejectsCleanly(t *testing.T) {
	m, _ := newManager(t, Config{})
	pr := grantOne(t, m, requestQuantity("c", "no-such-pool", 1))
	if pr.Accepted {
		t.Fatal("promise on missing pool accepted")
	}
}

// --- Named view (§3.2). ---

func TestNamedPromiseSingleHolder(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreateInstance(tx, "room-212", nil)
	})
	req := func(client string) Request {
		return Request{Client: client, PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Named("room-212")},
		}}}
	}
	pr := grantOne(t, m, req("alice"))
	if !pr.Accepted {
		t.Fatalf("rejected: %s", pr.Reason)
	}
	pr2 := grantOne(t, m, req("bob"))
	if pr2.Accepted {
		t.Fatal("named instance promised twice")
	}
	// After alice releases, bob can have it.
	if _, err := m.Execute(bg, Request{Client: "alice", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	pr3 := grantOne(t, m, req("bob"))
	if !pr3.Accepted {
		t.Fatalf("after release: %s", pr3.Reason)
	}
}

func TestNamedDuplicateInOneRequest(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreateInstance(tx, "i", nil)
	})
	resp, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("i"), Named("i")},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Promises[0].Accepted {
		t.Fatal("same instance promised twice within one request")
	}
}

func TestNamedMissingInstance(t *testing.T) {
	m, _ := newManager(t, Config{})
	resp, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("ghost")},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Promises[0].Accepted {
		t.Fatal("promise on missing instance accepted")
	}
}

// --- Atomicity requirement 1 (§4): several predicates at once. ---

func TestTravelAtomicMultiPredicate(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreatePool(tx, "flights-SYD-SFO", 2, nil); err != nil {
			return err
		}
		if err := rm.CreatePool(tx, "rental-cars", 1, nil); err != nil {
			return err
		}
		return rm.CreateInstance(tx, "room-212", nil)
	})
	travel := []Predicate{
		Quantity("flights-SYD-SFO", 1),
		Quantity("rental-cars", 1),
		Named("room-212"),
	}
	pr := grantOne(t, m, Request{Client: "agent-1", PromiseRequests: []PromiseRequest{{Predicates: travel}}})
	if !pr.Accepted {
		t.Fatalf("travel promise rejected: %s", pr.Reason)
	}
	// A second identical trip must be rejected atomically (no car, no
	// room) and must NOT leak a flight reservation.
	pr2 := grantOne(t, m, Request{Client: "agent-2", PromiseRequests: []PromiseRequest{{Predicates: travel}}})
	if pr2.Accepted {
		t.Fatal("second travel promise should fail")
	}
	// The flight seat the failed request looked at is still available.
	pr3 := grantOne(t, m, requestQuantity("agent-3", "flights-SYD-SFO", 1))
	if !pr3.Accepted {
		t.Fatalf("flight capacity leaked by failed atomic request: %s", pr3.Reason)
	}
}

// --- Atomicity requirement 2 (§4): action + release atomic. ---

func TestArtGalleryActionReleaseAtomicity(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreateInstance(tx, "painting-17", nil)
	})
	pr := grantOne(t, m, Request{Client: "buyer", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("painting-17")},
	}}})
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}

	// First attempt: "no shipper is available that day" — the purchase
	// fails, so the promise must remain in force.
	resp, err := m.Execute(bg, Request{
		Client: "buyer",
		Env:    []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Action: func(ac *ActionContext) (any, error) {
			// The action makes a partial change before failing.
			if err := ac.Resources.SetStatus(ac.Tx, "painting-17", resource.Taken); err != nil {
				return nil, err
			}
			return nil, errors.New("no shipper available")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr == nil {
		t.Fatal("action should have failed")
	}
	info, _ := m.PromiseInfo(pr.PromiseID)
	if info.State != Active {
		t.Fatalf("promise state after failed purchase = %v, want active", info.State)
	}
	// The partial change was rolled back.
	tx := m.only().store.Begin(txn.Block)
	in, err := m.only().rm.Instance(tx, "painting-17")
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != resource.Promised {
		t.Fatalf("painting status = %v, want promised (rolled back)", in.Status)
	}
	_ = tx.Commit()

	// Second attempt succeeds: purchase and release commit together.
	resp, err = m.Execute(bg, Request{
		Client: "buyer",
		Env:    []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Action: func(ac *ActionContext) (any, error) {
			return "sold", ac.Resources.SetStatus(ac.Tx, "painting-17", resource.Taken)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatalf("purchase: %v", resp.ActionErr)
	}
	info, _ = m.PromiseInfo(pr.PromiseID)
	if info.State != Released {
		t.Fatalf("promise state = %v, want released", info.State)
	}
}

// --- Atomicity requirement 3 (§4): modify = atomic release + grant. ---

func TestModifyUpgradeDowngrade(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "alice-account", 300, nil)
	})
	// Initial promise: $100 will be available.
	pr := grantOne(t, m, requestQuantity("shop", "alice-account", 100))
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	// Upgrade to $200 atomically.
	up := grantOne(t, m, Request{Client: "shop", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("alice-account", 200)},
		Releases:   []string{pr.PromiseID},
	}}})
	if !up.Accepted {
		t.Fatalf("upgrade rejected: %s", up.Reason)
	}
	if old, _ := m.PromiseInfo(pr.PromiseID); old.State != Released {
		t.Fatalf("old promise state = %v", old.State)
	}
	// Downgrade to $50 atomically.
	down := grantOne(t, m, Request{Client: "shop", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("alice-account", 50)},
		Releases:   []string{up.PromiseID},
	}}})
	if !down.Accepted {
		t.Fatalf("downgrade rejected: %s", down.Reason)
	}
	// 250 of 300 now unpromised.
	pr2 := grantOne(t, m, requestQuantity("other", "alice-account", 250))
	if !pr2.Accepted {
		t.Fatalf("capacity after downgrade wrong: %s", pr2.Reason)
	}
}

func TestModifyFailureRetainsOldPromise(t *testing.T) {
	// "if these new promises cannot be granted, the existing promises must
	// continue to hold" (§6).
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "acct", 150, nil)
	})
	pr := grantOne(t, m, requestQuantity("shop", "acct", 100))
	other := grantOne(t, m, requestQuantity("rival", "acct", 50))
	if !pr.Accepted || !other.Accepted {
		t.Fatal("setup grants failed")
	}
	// Upgrade to 200 is impossible (150 on hand, 50 promised to rival).
	up := grantOne(t, m, Request{Client: "shop", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("acct", 200)},
		Releases:   []string{pr.PromiseID},
	}}})
	if up.Accepted {
		t.Fatal("impossible upgrade accepted")
	}
	info, _ := m.PromiseInfo(pr.PromiseID)
	if info.State != Active {
		t.Fatalf("old promise state after failed upgrade = %v, want active", info.State)
	}
	// And the old promise still reserves its 100: only 0 is free.
	probe := grantOne(t, m, requestQuantity("probe", "acct", 1))
	if probe.Accepted {
		t.Fatal("capacity accounting broken after failed upgrade")
	}
}

func TestModifyUpgradeUsesFreedCapacity(t *testing.T) {
	// Upgrading 100 -> 120 on a 120 pool works only if the old promise's
	// reservation is excluded during feasibility.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "acct", 120, nil)
	})
	pr := grantOne(t, m, requestQuantity("shop", "acct", 100))
	up := grantOne(t, m, Request{Client: "shop", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("acct", 120)},
		Releases:   []string{pr.PromiseID},
	}}})
	if !up.Accepted {
		t.Fatalf("upgrade within freed capacity rejected: %s", up.Reason)
	}
}

func TestModifyReleaseTargetErrors(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	// Unknown release target.
	r := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 1)},
		Releases:   []string{"prm-999"},
	}}})
	if r.Accepted {
		t.Fatal("grant with unknown release target accepted")
	}
	// Someone else's promise as release target.
	pr := grantOne(t, m, requestQuantity("owner", "p", 1))
	r2 := grantOne(t, m, Request{Client: "thief", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 1)},
		Releases:   []string{pr.PromiseID},
	}}})
	if r2.Accepted {
		t.Fatal("grant releasing another client's promise accepted")
	}
}

// --- Post-action promise checking (§8). ---

func TestActionViolatingPromiseRolledBack(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "stock", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("holder", "stock", 8))
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	// An unrelated client's action drains the pool below the promised
	// level without holding any promise.
	resp, err := m.Execute(bg, Request{
		Client: "rogue",
		Action: func(ac *ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, "stock", -5)
			return nil, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseViolated) {
		t.Fatalf("ActionErr = %v, want ErrPromiseViolated", resp.ActionErr)
	}
	// The drain was undone.
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	p, _ := m.only().rm.Pool(tx, "stock")
	if p.OnHand != 10 {
		t.Fatalf("on hand = %d, want 10 (rolled back)", p.OnHand)
	}
}

func TestActionWithinPromiseBoundsSucceeds(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "stock", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("holder", "stock", 8))
	_ = pr
	// Draining 2 leaves 8 >= promised 8: allowed.
	resp, err := m.Execute(bg, Request{
		Client: "walkin",
		Action: func(ac *ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, "stock", -2)
			return nil, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatalf("in-bounds action failed: %v", resp.ActionErr)
	}
}

func TestDisablePostCheckAblation(t *testing.T) {
	// E9 ablation: without the post-action check, a rogue action corrupts
	// promised availability and nobody notices until the promise is used.
	m, _ := newManager(t, Config{DisablePostCheck: true})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "stock", 10, nil)
	})
	_ = grantOne(t, m, requestQuantity("holder", "stock", 8))
	resp, err := m.Execute(bg, Request{
		Client: "rogue",
		Action: func(ac *ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, "stock", -5)
			return nil, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatalf("ablated manager should accept the violating action: %v", resp.ActionErr)
	}
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	p, _ := m.only().rm.Pool(tx, "stock")
	if p.OnHand != 5 {
		t.Fatalf("on hand = %d, want 5 (violation committed)", p.OnHand)
	}
}

func TestActionPanicRecovered(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 5, nil)
	})
	resp, err := m.Execute(bg, Request{
		Client: "c",
		Action: func(ac *ActionContext) (any, error) {
			_, _ = ac.Resources.AdjustPool(ac.Tx, "p", -1)
			panic("service bug")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr == nil {
		t.Fatal("panicking action should report an error")
	}
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	p, _ := m.only().rm.Pool(tx, "p")
	if p.OnHand != 5 {
		t.Fatalf("panicking action's writes survived: %d", p.OnHand)
	}
}

// --- Environment validation. ---

func TestEnvErrors(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("owner", "p", 5))

	ran := false
	noteAction := func(ac *ActionContext) (any, error) { ran = true; return nil, nil }

	// Unknown promise.
	resp, err := m.Execute(bg, Request{Client: "owner", Env: []EnvEntry{{PromiseID: "prm-404"}}, Action: noteAction})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseNotFound) || ran {
		t.Fatalf("unknown env promise: err=%v ran=%v", resp.ActionErr, ran)
	}
	// Wrong client.
	resp, _ = m.Execute(bg, Request{Client: "stranger", Env: []EnvEntry{{PromiseID: pr.PromiseID}}, Action: noteAction})
	if !errors.Is(resp.ActionErr, ErrPromiseNotFound) || ran {
		t.Fatalf("foreign env promise: err=%v ran=%v", resp.ActionErr, ran)
	}
	// Released promise.
	if _, err := m.Execute(bg, Request{Client: "owner", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	resp, _ = m.Execute(bg, Request{Client: "owner", Env: []EnvEntry{{PromiseID: pr.PromiseID}}, Action: noteAction})
	if !errors.Is(resp.ActionErr, ErrPromiseReleased) || ran {
		t.Fatalf("released env promise: err=%v ran=%v", resp.ActionErr, ran)
	}
}

func TestPureReleaseMessageWithBadEnv(t *testing.T) {
	m, _ := newManager(t, Config{})
	resp, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: "prm-404", Release: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseNotFound) {
		t.Fatalf("ActionErr = %v", resp.ActionErr)
	}
}

// --- Duration handling. ---

func TestDurationClamping(t *testing.T) {
	m, fake := newManager(t, Config{DefaultDuration: time.Minute, MaxDuration: 5 * time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	now := fake.Now()
	// Default applies.
	pr := grantOne(t, m, requestQuantity("c", "p", 1))
	if got := pr.Expires.Sub(now); got != time.Minute {
		t.Fatalf("default duration = %v", got)
	}
	// Requested duration honoured.
	pr2 := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 1)},
		Duration:   2 * time.Minute,
	}}})
	if got := pr2.Expires.Sub(now); got != 2*time.Minute {
		t.Fatalf("requested duration = %v", got)
	}
	// Excessive duration capped — "the promise manager might … offer a
	// guarantee that expires sooner than the client wished" (§6).
	pr3 := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 1)},
		Duration:   time.Hour,
	}}})
	if got := pr3.Expires.Sub(now); got != 5*time.Minute {
		t.Fatalf("capped duration = %v", got)
	}
}

// --- Misc API. ---

func TestGrantedHelperAndMultipleRequests(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 5, nil)
	})
	resp, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{
		{RequestID: "a", Predicates: []Predicate{Quantity("p", 3)}},
		{RequestID: "b", Predicates: []Predicate{Quantity("p", 3)}}, // fails: only 2 left
		{RequestID: "c", Predicates: []Predicate{Quantity("p", 2)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Promises) != 3 {
		t.Fatalf("responses = %d", len(resp.Promises))
	}
	if !resp.Promises[0].Accepted || resp.Promises[1].Accepted || !resp.Promises[2].Accepted {
		t.Fatalf("accept pattern wrong: %+v", resp.Promises)
	}
	if got := resp.Granted(); len(got) != 2 {
		t.Fatalf("Granted() = %v", got)
	}
}

func TestActivePromisesAndInfo(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "p", 4))
	list, err := m.ActivePromises()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != pr.PromiseID {
		t.Fatalf("ActivePromises = %+v", list)
	}
	info, err := m.PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Client != "c" || len(info.Predicates) != 1 {
		t.Fatalf("info = %+v", info)
	}
	if _, err := m.PromiseInfo("prm-404"); !errors.Is(err, ErrPromiseNotFound) {
		t.Fatalf("missing info: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	// Zero shards means one.
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 1 {
		t.Fatalf("zero Shards built %d shards, want 1", m.NumShards())
	}
	// A namespace that could not round-trip through an id is rejected.
	for _, ns := range []string{"a!b", "a+b", "a b"} {
		if _, err := New(Config{IDNamespace: ns}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("namespace %q: err = %v, want ErrBadRequest", ns, err)
		}
	}
}

func TestFromExprPredicates(t *testing.T) {
	p, err := FromExpr("pink-widgets", "quantity >= 5")
	if err != nil {
		t.Fatal(err)
	}
	if p.View != AnonymousView || p.Qty != 5 || p.Pool != "pink-widgets" {
		t.Fatalf("FromExpr = %+v", p)
	}
	if _, err := FromExpr("acct", "balance >= 100"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"quantity <= 5",          // upper bound
		"floor = 5",              // wrong property
		"quantity >= 0",          // non-positive
		"quantity >= 1 or false", // outside fragment
		"quantity >",             // syntax error
	} {
		if _, err := FromExpr("p", bad); err == nil {
			t.Errorf("FromExpr(%q) accepted", bad)
		}
	}
}

func TestPredicateStringForms(t *testing.T) {
	if s := Quantity("p", 5).String(); s != "quantity(p) >= 5" {
		t.Fatalf("quantity string = %q", s)
	}
	if s := Named("i").String(); s != "instance(i) available" {
		t.Fatalf("named string = %q", s)
	}
	mp := MustProperty("floor = 5")
	if s := mp.String(); s != "match(floor = 5)" {
		t.Fatalf("property string = %q", s)
	}
	// Without source, falls back to the AST rendering.
	mp.Source = ""
	if s := mp.String(); s == "" {
		t.Fatal("property string empty")
	}
	if (Predicate{View: View(9)}).Validate() == nil {
		t.Fatal("unknown view validated")
	}
	_ = fmt.Sprint(AnonymousView, NamedView, PropertyView, View(9))
	_ = fmt.Sprint(Active, Released, Expired, State(9))
}

func TestMustPropertyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustProperty on bad input did not panic")
		}
	}()
	MustProperty("((")
}

func TestPropertyPredicateEvalErrorIsNoEdge(t *testing.T) {
	// An instance missing the predicate's property simply cannot back it.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreateInstance(tx, "car", map[string]predicate.Value{"km": predicate.Int(1000)}); err != nil {
			return err
		}
		return rm.CreateInstance(tx, "room", map[string]predicate.Value{"floor": predicate.Int(5)})
	})
	pr := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{MustProperty("floor = 5")},
	}}})
	if !pr.Accepted {
		t.Fatalf("rejected: %s", pr.Reason)
	}
	info, _ := m.PromiseInfo(pr.PromiseID)
	if info.Assigned[0] != "room" {
		t.Fatalf("assigned %q, want room", info.Assigned[0])
	}
}
