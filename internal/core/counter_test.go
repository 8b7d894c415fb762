package core

import (
	"strings"
	"testing"

	"repro/internal/txn"
)

func TestCounterOfferSinglePool(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "w", 7, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "w", 10))
	if pr.Accepted {
		t.Fatal("should reject")
	}
	if len(pr.Counter) != 1 {
		t.Fatalf("counter = %+v", pr.Counter)
	}
	if pr.Counter[0].Pool != "w" || pr.Counter[0].Qty != 7 {
		t.Fatalf("counter = %+v", pr.Counter[0])
	}
	// The counter-offer itself is grantable.
	pr2 := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: pr.Counter,
	}}})
	if !pr2.Accepted {
		t.Fatalf("counter not grantable: %s", pr2.Reason)
	}
}

func TestCounterOfferMultiPool(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreatePool(tx, "a", 3, nil); err != nil {
			return err
		}
		if err := rm.CreatePool(tx, "b", 100, nil); err != nil {
			return err
		}
		return rm.CreatePool(tx, "c", 0, nil)
	})
	resp, err := m.Execute(bg, Request{Client: "x", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("a", 10), Quantity("b", 10), Quantity("c", 10)},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.Promises[0]
	if pr.Accepted {
		t.Fatal("should reject")
	}
	// Counters for a (3 available) but not c (0 available, nothing to
	// offer) and not b (fully satisfiable, not a failing pool).
	if len(pr.Counter) != 1 || pr.Counter[0].Pool != "a" || pr.Counter[0].Qty != 3 {
		t.Fatalf("counter = %+v", pr.Counter)
	}
	// The reason mentions both failing pools, deterministically ordered.
	if !strings.Contains(pr.Reason, `pool "a"`) || !strings.Contains(pr.Reason, `pool "c"`) {
		t.Fatalf("reason = %q", pr.Reason)
	}
	if strings.Index(pr.Reason, `pool "a"`) > strings.Index(pr.Reason, `pool "c"`) {
		t.Fatalf("reasons not sorted: %q", pr.Reason)
	}
}

func TestCounterOfferAccountsForOutstandingPromises(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "w", 10, nil)
	})
	_ = grantOne(t, m, requestQuantity("other", "w", 6))
	pr := grantOne(t, m, requestQuantity("c", "w", 10))
	if pr.Accepted {
		t.Fatal("should reject")
	}
	if len(pr.Counter) != 1 || pr.Counter[0].Qty != 4 {
		t.Fatalf("counter should reflect unreserved capacity: %+v", pr.Counter)
	}
}

func TestNoCounterWhenNothingAvailable(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "w", 5, nil)
	})
	_ = grantOne(t, m, requestQuantity("other", "w", 5))
	pr := grantOne(t, m, requestQuantity("c", "w", 1))
	if pr.Accepted || len(pr.Counter) != 0 {
		t.Fatalf("pr = %+v", pr)
	}
}

func TestNoCounterOnNamedOrPropertyRejection(t *testing.T) {
	m, _ := newManager(t, Config{})
	pr := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("ghost")},
	}}})
	if pr.Accepted || len(pr.Counter) != 0 {
		t.Fatalf("pr = %+v", pr)
	}
}
