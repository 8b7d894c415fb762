package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/txn"
)

// engineSupplier fronts an upstream Manager as a Supplier for in-package
// delegation chains; promises.EngineSupplier is the exported equivalent
// for any Engine. The manager never consumes upstream promises itself, so
// ConsumePromise is not needed here.
type engineSupplier struct {
	m      *Manager
	client string
}

func (s *engineSupplier) RequestPromise(ctx context.Context, pool string, qty int64, d time.Duration) (string, error) {
	resp, err := s.m.Execute(ctx, Request{Client: s.client, PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(pool, qty)},
		Duration:   d,
	}}})
	if err != nil {
		return "", err
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		return "", fmt.Errorf("upstream rejected %d of %q: %s", qty, pool, pr.Reason)
	}
	return pr.PromiseID, nil
}

func (s *engineSupplier) ReleasePromise(ctx context.Context, id string) error {
	return s.m.Release(ctx, s.client, id)
}

func (s *engineSupplier) ConsumePromise(context.Context, string, int64) error {
	return errors.New("engineSupplier: consume not supported")
}

// newSupplyChain builds distributor -> merchant with the distributor
// registered as the merchant's supplier for the given pool.
func newSupplyChain(t *testing.T, pool string, merchantStock, distributorStock int64) (merchant, distributor *Manager) {
	t.Helper()
	distributor, _ = newManager(t, Config{})
	seed(t, distributor, func(tx *txn.Tx) error {
		return distributor.only().rm.CreatePool(tx, pool, distributorStock, nil)
	})
	merchant, _ = newManager(t, Config{
		Suppliers: map[string]Supplier{
			pool: &engineSupplier{m: distributor, client: "merchant"},
		},
	})
	seed(t, merchant, func(tx *txn.Tx) error {
		return merchant.only().rm.CreatePool(tx, pool, merchantStock, nil)
	})
	return merchant, distributor
}

func TestDelegationCoversShortfall(t *testing.T) {
	// §5: "a purchase order can be accepted by the merchant if it has
	// received a promise from the distributor that a backorder will be
	// fulfilled on time."
	merchant, distributor := newSupplyChain(t, "widgets", 3, 10)
	pr := grantOne(t, merchant, requestQuantity("customer", "widgets", 8))
	if !pr.Accepted {
		t.Fatalf("delegated grant rejected: %s", pr.Reason)
	}
	info, _ := merchant.PromiseInfo(pr.PromiseID)
	if info.DelegatedQty[0] != 5 {
		t.Fatalf("delegated qty = %d, want 5", info.DelegatedQty[0])
	}
	if info.DelegatedID[0] == "" {
		t.Fatal("no upstream promise recorded")
	}
	// The distributor now holds a 5-unit promise for the merchant.
	up, err := distributor.PromiseInfo(info.DelegatedID[0])
	if err != nil {
		t.Fatal(err)
	}
	if up.State != Active || up.Predicates[0].Qty != 5 {
		t.Fatalf("upstream promise = %+v", up)
	}
	// Distributor capacity is reduced accordingly.
	probe := grantOne(t, distributor, requestQuantity("someone", "widgets", 6))
	if probe.Accepted {
		t.Fatal("distributor over-promised")
	}
}

func TestDelegationUpstreamRejectionRejectsLocally(t *testing.T) {
	merchant, _ := newSupplyChain(t, "widgets", 3, 4)
	pr := grantOne(t, merchant, requestQuantity("customer", "widgets", 8))
	if pr.Accepted {
		t.Fatal("grant accepted despite upstream shortage")
	}
	// Nothing leaked locally.
	probe := grantOne(t, merchant, requestQuantity("x", "widgets", 3))
	if !probe.Accepted {
		t.Fatalf("local capacity leaked: %s", probe.Reason)
	}
}

func TestDelegationNoSupplierRejects(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "widgets", 3, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "widgets", 8))
	if pr.Accepted {
		t.Fatal("shortfall without supplier accepted")
	}
}

func TestDelegationReleasePropagatesUpstream(t *testing.T) {
	merchant, distributor := newSupplyChain(t, "widgets", 3, 10)
	pr := grantOne(t, merchant, requestQuantity("customer", "widgets", 8))
	info, _ := merchant.PromiseInfo(pr.PromiseID)
	upID := info.DelegatedID[0]
	if _, err := merchant.Execute(bg, Request{
		Client: "customer",
		Env:    []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
	}); err != nil {
		t.Fatal(err)
	}
	up, err := distributor.PromiseInfo(upID)
	if err != nil {
		t.Fatal(err)
	}
	if up.State != Released {
		t.Fatalf("upstream promise state = %v, want released", up.State)
	}
	// Full distributor capacity restored.
	probe := grantOne(t, distributor, requestQuantity("someone", "widgets", 10))
	if !probe.Accepted {
		t.Fatalf("upstream capacity not restored: %s", probe.Reason)
	}
}

func TestDelegationExpiryPropagatesUpstream(t *testing.T) {
	distributor, _ := newManager(t, Config{})
	seed(t, distributor, func(tx *txn.Tx) error {
		return distributor.only().rm.CreatePool(tx, "w", 10, nil)
	})
	fakeMerchant := Config{
		DefaultDuration: time.Minute,
		Suppliers:       map[string]Supplier{"w": &engineSupplier{m: distributor, client: "m"}},
	}
	merchant, fake := newManager(t, fakeMerchant)
	seed(t, merchant, func(tx *txn.Tx) error {
		return merchant.only().rm.CreatePool(tx, "w", 2, nil)
	})
	pr := grantOne(t, merchant, requestQuantity("c", "w", 6))
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	info, _ := merchant.PromiseInfo(pr.PromiseID)
	fake.Advance(2 * time.Minute)
	up, err := distributor.PromiseInfo(info.DelegatedID[0])
	if err != nil {
		t.Fatal(err)
	}
	if up.State != Released {
		t.Fatalf("upstream after local expiry = %v, want released", up.State)
	}
}

// flakySupplier counts calls and can fail on demand.
type flakySupplier struct {
	fail     atomic.Bool
	requests atomic.Int64
	releases atomic.Int64
	nextID   atomic.Int64
}

func (f *flakySupplier) RequestPromise(_ context.Context, pool string, qty int64, d time.Duration) (string, error) {
	f.requests.Add(1)
	if f.fail.Load() {
		return "", errors.New("upstream down")
	}
	return "up-" + string(rune('0'+f.nextID.Add(1))), nil
}
func (f *flakySupplier) ReleasePromise(context.Context, string) error        { f.releases.Add(1); return nil }
func (f *flakySupplier) ConsumePromise(context.Context, string, int64) error { return nil }

func TestDelegationSupplierErrorRejects(t *testing.T) {
	sup := &flakySupplier{}
	sup.fail.Store(true)
	m, _ := newManager(t, Config{Suppliers: map[string]Supplier{"w": sup}})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "w", 2, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "w", 5))
	if pr.Accepted {
		t.Fatal("grant accepted with failing supplier")
	}
	if sup.requests.Load() != 1 {
		t.Fatalf("supplier requests = %d", sup.requests.Load())
	}
}

func TestDelegationMultiPredicateCompensation(t *testing.T) {
	// A two-predicate request where the second predicate fails after the
	// first already obtained an upstream promise: the upstream promise must
	// be released (compensated) because the atomic request is rejected.
	sup := &flakySupplier{}
	m, _ := newManager(t, Config{Suppliers: map[string]Supplier{"w": sup}})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "w", 2, nil)
	})
	resp, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{
			Quantity("w", 5),        // needs delegation for 3
			Named("ghost-instance"), // fails: no such instance
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Promises[0].Accepted {
		t.Fatal("request should fail on the named predicate")
	}
	if sup.requests.Load() != 1 || sup.releases.Load() != 1 {
		t.Fatalf("supplier requests=%d releases=%d, want 1/1 (compensation)",
			sup.requests.Load(), sup.releases.Load())
	}
}
