package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/resource"
	"repro/internal/txn"
)

func TestExpiredPromiseUseReturnsPromiseExpired(t *testing.T) {
	// §2: "Promise managers return 'promise-expired' errors to clients
	// that attempt to perform operations under the protection of expired
	// promises."
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "p", 5))
	fake.Advance(2 * time.Minute)
	ran := false
	resp, err := m.Execute(bg, Request{
		Client: "c",
		Env:    []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Action: func(ac *ActionContext) (any, error) { ran = true; return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseExpired) {
		t.Fatalf("ActionErr = %v, want ErrPromiseExpired", resp.ActionErr)
	}
	if ran {
		t.Fatal("action ran under an expired promise")
	}
}

func TestExpiryFreesAnonymousCapacity(t *testing.T) {
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	_ = grantOne(t, m, requestQuantity("a", "p", 10))
	if pr := grantOne(t, m, requestQuantity("b", "p", 1)); pr.Accepted {
		t.Fatal("pool fully promised")
	}
	fake.Advance(2 * time.Minute)
	// The sweep at the start of the next request frees the expired hold.
	if pr := grantOne(t, m, requestQuantity("b", "p", 10)); !pr.Accepted {
		t.Fatalf("expired promise still holds capacity: %s", pr.Reason)
	}
}

func TestExpiryFreesInstances(t *testing.T) {
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreateInstance(tx, "i", nil)
	})
	pr := grantOne(t, m, Request{Client: "a", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("i")},
	}}})
	fake.Advance(2 * time.Minute)
	info, _ := m.PromiseInfo(pr.PromiseID)
	if info.State != Expired {
		t.Fatalf("state = %v, want expired", info.State)
	}
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	in, _ := m.only().rm.Instance(tx, "i")
	if in.Status != resource.Available {
		t.Fatalf("instance status after expiry = %v", in.Status)
	}
}

func TestMixedExpiryOnlyLapsedFreed(t *testing.T) {
	m, fake := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	short := grantOne(t, m, Request{Client: "a", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 5)},
		Duration:   time.Minute,
	}}})
	long := grantOne(t, m, Request{Client: "b", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 5)},
		Duration:   time.Hour,
	}}})
	fake.Advance(5 * time.Minute)
	si, _ := m.PromiseInfo(short.PromiseID)
	li, _ := m.PromiseInfo(long.PromiseID)
	if si.State != Expired {
		t.Fatalf("short promise state = %v", si.State)
	}
	if li.State != Active {
		t.Fatalf("long promise state = %v", li.State)
	}
	// Exactly 5 units free again.
	if pr := grantOne(t, m, requestQuantity("c", "p", 5)); !pr.Accepted {
		t.Fatalf("freed capacity not grantable: %s", pr.Reason)
	}
	if pr := grantOne(t, m, requestQuantity("d", "p", 1)); pr.Accepted {
		t.Fatal("over-granted after partial expiry")
	}
}

func TestExpiredPromiseNotCountedInChecks(t *testing.T) {
	// An action that would violate an expired promise must succeed.
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	_ = grantOne(t, m, requestQuantity("a", "p", 8))
	fake.Advance(2 * time.Minute)
	resp, err := m.Execute(bg, Request{
		Client: "b",
		Action: func(ac *ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, "p", -9)
			return nil, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatalf("action blocked by expired promise: %v", resp.ActionErr)
	}
}

func TestModifyExpiredPromiseRejected(t *testing.T) {
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "p", 5))
	fake.Advance(2 * time.Minute)
	up := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 6)},
		Releases:   []string{pr.PromiseID},
	}}})
	if up.Accepted {
		t.Fatal("modify of expired promise accepted")
	}
}

func TestSweepIdempotent(t *testing.T) {
	// Repeated deadline passes lapse a promise exactly once.
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	_ = grantOne(t, m, requestQuantity("c", "p", 5))
	for i := 0; i < 3; i++ {
		fake.Advance(2 * time.Minute)
	}
	list, _ := m.ActivePromises()
	if len(list) != 0 {
		t.Fatalf("active promises after expiry = %d", len(list))
	}
	if got := m.Stats().Expirations; got != 1 {
		t.Fatalf("expirations = %d, want 1", got)
	}
}
