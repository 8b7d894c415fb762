package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/softlock"
	"repro/internal/txn"
)

func TestAuditReportString(t *testing.T) {
	healthy := &AuditReport{ActivePromises: 2, Slots: 3}
	if s := healthy.String(); !strings.Contains(s, "healthy") || !strings.Contains(s, "2 active") {
		t.Fatalf("healthy string = %q", s)
	}
	sick := &AuditReport{ActivePromises: 1, Problems: []string{"escrow: overdrawn"}}
	if s := sick.String(); !strings.Contains(s, "1 problems") {
		t.Fatalf("sick string = %q", s)
	}
}

func TestAuditHealthyOnFreshManager(t *testing.T) {
	m, _ := newManager(t, Config{})
	rep, err := m.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.ActivePromises != 0 {
		t.Fatalf("fresh audit: %s", rep)
	}
}

func TestAuditHealthyAfterMixedActivity(t *testing.T) {
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreatePool(tx, "p", 20, nil); err != nil {
			return err
		}
		if err := rm.CreateInstance(tx, "i1", nil); err != nil {
			return err
		}
		return rm.CreateInstance(tx, "r1", map[string]predicate.Value{"x": predicate.Int(1)})
	})
	pr1 := grantOne(t, m, requestQuantity("a", "p", 5))
	_ = grantOne(t, m, Request{Client: "b", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("i1"), MustProperty("x = 1")},
	}}})
	// Release one, expire nothing yet.
	if _, err := m.Execute(bg, Request{Client: "a", Env: []EnvEntry{{PromiseID: pr1.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("audit after activity: %s", rep)
	}
	if rep.ActivePromises != 1 || rep.Slots != 2 {
		t.Fatalf("counts: %s", rep)
	}
	// Expiry sweep inside Audit handles lapsed promises.
	fake.Advance(2 * time.Minute)
	rep, err = m.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.ActivePromises != 0 {
		t.Fatalf("audit after expiry: %s", rep)
	}
}

func TestAuditDetectsCorruption(t *testing.T) {
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreatePool(tx, "p", 10, nil); err != nil {
			return err
		}
		return rm.CreateInstance(tx, "i1", nil)
	})
	_ = grantOne(t, m, requestQuantity("a", "p", 8))
	named := grantOne(t, m, Request{Client: "b", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("i1")},
	}}})

	// Corruption 1: drain the pool behind the manager's back.
	seed(t, m, func(tx *txn.Tx) error {
		_, err := m.only().rm.AdjustPool(tx, "p", -5)
		return err
	})
	rep, err := m.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatal("audit missed escrow overdraw")
	}

	// Restore, then corruption 2: steal the named instance's tag.
	seed(t, m, func(tx *txn.Tx) error {
		_, err := m.only().rm.AdjustPool(tx, "p", 5)
		return err
	})
	seed(t, m, func(tx *txn.Tx) error {
		return tx.Put(softlock.Table, "i1", fakeHolderRow("mallory"))
	})
	rep, err = m.Audit()
	if err != nil {
		t.Fatal(err)
	}
	healthyNamed := true
	for _, p := range rep.Problems {
		if strings.Contains(p, named.PromiseID) || strings.Contains(p, "mallory") || strings.Contains(p, "dead slot") {
			healthyNamed = false
		}
	}
	if healthyNamed {
		t.Fatalf("audit missed stolen tag: %s", rep)
	}
}

// fakeHolderRow builds a softlock holder row through its exported surface:
// acquire in a scratch store and copy the row out via a scan.
func fakeHolderRow(holder string) txn.Row {
	store := txn.NewStore()
	rm, err := resource.NewManager(store)
	if err != nil {
		panic(err)
	}
	tags, err := softlock.NewTags(store, rm)
	if err != nil {
		panic(err)
	}
	tx := store.Begin(txn.Block)
	if err := rm.CreateInstance(tx, "scratch", nil); err != nil {
		panic(err)
	}
	if err := tags.Acquire(tx, "scratch", holder); err != nil {
		panic(err)
	}
	var row txn.Row
	if err := tx.Scan(softlock.Table, func(_ string, r txn.Row) bool { row = r; return false }); err != nil {
		panic(err)
	}
	_ = tx.Commit()
	return row
}

func TestAuditDetectsLeakedReservation(t *testing.T) {
	// A reservation held by a slot of a promise that no longer exists.
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().ledger.Reserve(tx, "p", "prm-ghost#0", 3)
	})
	rep, err := m.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatal("audit missed leaked reservation")
	}
}

// TestQuickSoakAuditStaysHealthy drives random operation sequences against
// one manager and audits after every operation: the system must never drift
// into an inconsistent state, whatever the interleaving of grants,
// releases, modifies, purchases, rogue actions and expiry.
func TestQuickSoakAuditStaysHealthy(t *testing.T) {
	f := func(seed64 int64) bool {
		r := rand.New(rand.NewSource(seed64))
		m, fake := newManager(t, Config{DefaultDuration: time.Minute})
		seed(t, m, func(tx *txn.Tx) error {
			rm := m.only().rm
			if err := rm.CreatePool(tx, "p", 30, nil); err != nil {
				return err
			}
			for i := 0; i < 4; i++ {
				if err := rm.CreateInstance(tx, fmt.Sprintf("i%d", i), map[string]predicate.Value{
					"x": predicate.Int(int64(i % 2)),
				}); err != nil {
					return err
				}
			}
			return nil
		})
		var held []string
		for step := 0; step < 40; step++ {
			switch r.Intn(6) {
			case 0: // grant anonymous
				resp, err := m.Execute(bg, requestQuantity("c", "p", int64(1+r.Intn(8))))
				if err != nil {
					t.Logf("grant: %v", err)
					return false
				}
				if resp.Promises[0].Accepted {
					held = append(held, resp.Promises[0].PromiseID)
				}
			case 1: // grant named or property
				var pred Predicate
				if r.Intn(2) == 0 {
					pred = Named(fmt.Sprintf("i%d", r.Intn(4)))
				} else {
					pred = MustProperty(fmt.Sprintf("x = %d", r.Intn(2)))
				}
				resp, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{pred},
				}}})
				if err != nil {
					t.Logf("grant2: %v", err)
					return false
				}
				if resp.Promises[0].Accepted {
					held = append(held, resp.Promises[0].PromiseID)
				}
			case 2: // release one
				if len(held) > 0 {
					idx := r.Intn(len(held))
					_, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: held[idx], Release: true}}})
					if err != nil {
						t.Logf("release: %v", err)
						return false
					}
					held = append(held[:idx], held[idx+1:]...)
				}
			case 3: // modify (upgrade/downgrade) one
				if len(held) > 0 {
					idx := r.Intn(len(held))
					resp, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
						Predicates: []Predicate{Quantity("p", int64(1+r.Intn(8)))},
						Releases:   []string{held[idx]},
					}}})
					if err != nil {
						t.Logf("modify: %v", err)
						return false
					}
					if resp.Promises[0].Accepted {
						held[idx] = resp.Promises[0].PromiseID
					}
				}
			case 4: // action (possibly violating; rolled back if so)
				delta := int64(-(1 + r.Intn(5)))
				_, err := m.Execute(bg, Request{Client: "c", Action: func(ac *ActionContext) (any, error) {
					_, err := ac.Resources.AdjustPool(ac.Tx, "p", delta)
					return nil, err
				}})
				if err != nil {
					t.Logf("action: %v", err)
					return false
				}
			case 5: // time passes
				fake.Advance(time.Duration(r.Intn(40)) * time.Second)
			}
			rep, err := m.Audit()
			if err != nil {
				t.Logf("audit err: %v", err)
				return false
			}
			if !rep.Healthy() {
				t.Logf("seed %d step %d: %s", seed64, step, rep)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSoakThenAudit(t *testing.T) {
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreatePool(tx, "p", 50, nil); err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			if err := rm.CreateInstance(tx, fmt.Sprintf("i%d", i), map[string]predicate.Value{
				"x": predicate.Int(int64(i % 3)),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30; i++ {
				var pred Predicate
				switch r.Intn(3) {
				case 0:
					pred = Quantity("p", int64(1+r.Intn(4)))
				case 1:
					pred = Named(fmt.Sprintf("i%d", r.Intn(6)))
				default:
					pred = MustProperty(fmt.Sprintf("x = %d", r.Intn(3)))
				}
				resp, err := m.Execute(bg, Request{Client: fmt.Sprintf("w%d", w), PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{pred},
				}}})
				if err != nil {
					t.Error(err)
					return
				}
				pr := resp.Promises[0]
				if pr.Accepted && r.Intn(3) > 0 {
					if _, err := m.Execute(bg, Request{Client: fmt.Sprintf("w%d", w),
						Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	rep, err := m.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("concurrent soak left inconsistent state: %s", rep)
	}
}
