package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/predicate"
	"repro/internal/txn"
)

func TestConcurrentAnonymousGrantsRespectCapacity(t *testing.T) {
	// §3.1: "the sum of all promised resources should not exceed the
	// resources that are actually available" — under a concurrent stampede.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "seats", 40, nil)
	})
	const clients = 100
	var granted atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pr, err := m.Execute(bg, requestQuantity("client", "seats", 1))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			if pr.Promises[0].Accepted {
				granted.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if granted.Load() != 40 {
		t.Fatalf("granted %d promises over a pool of 40", granted.Load())
	}
}

func TestConcurrentNamedGrantsSingleWinner(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreateInstance(tx, "unique", nil)
	})
	var winners atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
				Predicates: []Predicate{Named("unique")},
			}}})
			if err != nil {
				t.Error(err)
				return
			}
			if pr.Promises[0].Accepted {
				winners.Add(1)
			}
		}()
	}
	wg.Wait()
	if winners.Load() != 1 {
		t.Fatalf("%d winners for one named instance", winners.Load())
	}
}

func TestConcurrentPropertyGrantsBoundedByRooms(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		for _, id := range []string{"r1", "r2", "r3"} {
			if err := rm.CreateInstance(tx, id, map[string]predicate.Value{
				"view": predicate.Bool(true),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	var granted atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 24; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, err := m.Execute(bg, propertyReq("c", "view = true"))
			if err != nil {
				t.Error(err)
				return
			}
			if pr.Promises[0].Accepted {
				granted.Add(1)
			}
		}()
	}
	wg.Wait()
	if granted.Load() != 3 {
		t.Fatalf("granted %d property promises over 3 rooms", granted.Load())
	}
}

func TestConcurrentMixedGrantReleaseChurn(t *testing.T) {
	// Clients repeatedly grant then release; after the dust settles all
	// capacity must be free and all invariants hold.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreatePool(tx, "pool", 10, nil); err != nil {
			return err
		}
		for _, id := range []string{"i1", "i2", "i3", "i4"} {
			if err := rm.CreateInstance(tx, id, map[string]predicate.Value{"x": predicate.Int(1)}); err != nil {
				return err
			}
		}
		return nil
	})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var preds []Predicate
				switch (c + i) % 3 {
				case 0:
					preds = []Predicate{Quantity("pool", 2)}
				case 1:
					preds = []Predicate{Named("i1")}
				case 2:
					preds = []Predicate{MustProperty("x = 1")}
				}
				resp, err := m.Execute(bg, Request{Client: "churn", PromiseRequests: []PromiseRequest{{Predicates: preds}}})
				if err != nil {
					t.Error(err)
					return
				}
				p := resp.Promises[0]
				if !p.Accepted {
					continue
				}
				if _, err := m.Execute(bg, Request{Client: "churn", Env: []EnvEntry{{PromiseID: p.PromiseID, Release: true}}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// Everything must be free again.
	pr := grantOne(t, m, requestQuantity("final", "pool", 10))
	if !pr.Accepted {
		t.Fatalf("pool capacity leaked: %s", pr.Reason)
	}
	for _, id := range []string{"i1", "i2", "i3", "i4"} {
		r := grantOne(t, m, Request{Client: "final", PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Named(id)},
		}}})
		if !r.Accepted {
			t.Fatalf("instance %s leaked: %s", id, r.Reason)
		}
	}
}

func TestConcurrentActionsAndGrants(t *testing.T) {
	// Purchases (action + release) race with new grants; stock arithmetic
	// must stay exact: 30 units, 15 buyers of 2 each.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "stock", 30, nil)
	})
	var bought atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 25; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, err := m.Execute(bg, requestQuantity("buyer", "stock", 2))
			if err != nil {
				t.Error(err)
				return
			}
			p := pr.Promises[0]
			if !p.Accepted {
				return
			}
			resp, err := m.Execute(bg, Request{
				Client: "buyer",
				Env:    []EnvEntry{{PromiseID: p.PromiseID, Release: true}},
				Action: func(ac *ActionContext) (any, error) {
					_, err := ac.Resources.AdjustPool(ac.Tx, "stock", -2)
					return nil, err
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.ActionErr == nil {
				bought.Add(2)
			}
		}()
	}
	wg.Wait()
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	p, err := m.only().rm.Pool(tx, "stock")
	if err != nil {
		t.Fatal(err)
	}
	if p.OnHand != 30-bought.Load() {
		t.Fatalf("on hand %d, bought %d: arithmetic broken", p.OnHand, bought.Load())
	}
	if bought.Load() != 30 {
		t.Fatalf("bought %d, want 30 (15 successful buyers)", bought.Load())
	}
}
