package escrow

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/resource"
	"repro/internal/txn"
)

func newLedger(t *testing.T) (*Ledger, *resource.Manager, *txn.Store) {
	t.Helper()
	store := txn.NewStore()
	rm, err := resource.NewManager(store)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLedger(store, rm)
	if err != nil {
		t.Fatal(err)
	}
	return l, rm, store
}

func seedPool(t *testing.T, rm *resource.Manager, store *txn.Store, pool string, qty int64) {
	t.Helper()
	tx := store.Begin(txn.Block)
	if err := rm.CreatePool(tx, pool, qty, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveWithinCapacity(t *testing.T) {
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "widgets", 10)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	if err := l.Reserve(tx, "widgets", "alice", 5); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(tx, "widgets", "bob", 5); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(tx, "widgets", "carol", 1); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-reservation: %v", err)
	}
	got, _ := l.Reserved(tx, "widgets", "alice")
	if got != 5 {
		t.Fatalf("alice reserved = %d", got)
	}
	total, _ := l.TotalReserved(tx, "widgets")
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	unres, _ := l.Unreserved(tx, "widgets")
	if unres != 0 {
		t.Fatalf("unreserved = %d", unres)
	}
}

func TestReserveAccumulates(t *testing.T) {
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "w", 10)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = l.Reserve(tx, "w", "a", 3)
	_ = l.Reserve(tx, "w", "a", 4)
	got, _ := l.Reserved(tx, "w", "a")
	if got != 7 {
		t.Fatalf("accumulated = %d", got)
	}
}

func TestReserveValidation(t *testing.T) {
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "w", 10)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	if err := l.Reserve(tx, "w", "a", 0); err == nil {
		t.Fatal("zero qty allowed")
	}
	if err := l.Reserve(tx, "w", "a", -1); err == nil {
		t.Fatal("negative qty allowed")
	}
	if err := l.Reserve(tx, "ghost", "a", 1); !errors.Is(err, txn.ErrNotFound) {
		t.Fatalf("missing pool: %v", err)
	}
}

func TestReleaseAndErrors(t *testing.T) {
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "w", 10)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = l.Reserve(tx, "w", "a", 5)
	if err := l.Release(tx, "w", "a", 2); err != nil {
		t.Fatal(err)
	}
	got, _ := l.Reserved(tx, "w", "a")
	if got != 3 {
		t.Fatalf("after release = %d", got)
	}
	if err := l.Release(tx, "w", "a", 4); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("over-release: %v", err)
	}
	if err := l.Release(tx, "w", "b", 1); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("stranger release: %v", err)
	}
	if err := l.Release(tx, "w", "a", 0); err == nil {
		t.Fatal("zero release allowed")
	}
	// Full release removes the holder entry.
	if err := l.Release(tx, "w", "a", 3); err != nil {
		t.Fatal(err)
	}
	total, _ := l.TotalReserved(tx, "w")
	if total != 0 {
		t.Fatalf("total after full release = %d", total)
	}
}

func TestConsume(t *testing.T) {
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "w", 10)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = l.Reserve(tx, "w", "a", 5)
	if err := l.Consume(tx, "w", "a", 5); err != nil {
		t.Fatal(err)
	}
	p, _ := rm.Pool(tx, "w")
	if p.OnHand != 5 {
		t.Fatalf("on hand after consume = %d", p.OnHand)
	}
	got, _ := l.Reserved(tx, "w", "a")
	if got != 0 {
		t.Fatalf("reserved after consume = %d", got)
	}
	if err := l.Consume(tx, "w", "a", 1); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("consume without reservation: %v", err)
	}
	if err := l.Consume(tx, "w", "a", -1); err == nil {
		t.Fatal("negative consume allowed")
	}
}

func TestConsumeFreesCapacityForOthers(t *testing.T) {
	// The paper's Figure 1 flow: a purchase consumes promised stock; the
	// remaining capacity is governed by on-hand minus remaining
	// reservations.
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "pink-widgets", 10)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = l.Reserve(tx, "pink-widgets", "order-1", 5)
	_ = l.Reserve(tx, "pink-widgets", "order-2", 5)
	// order-1 buys its 5: on hand 10->5, reservations 10->5.
	if err := l.Consume(tx, "pink-widgets", "order-1", 5); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckInvariant(tx, "pink-widgets"); err != nil {
		t.Fatal(err)
	}
	unres, _ := l.Unreserved(tx, "pink-widgets")
	if unres != 0 {
		t.Fatalf("unreserved = %d, want 0 (order-2 still holds 5 of the 5)", unres)
	}
	// A third order cannot reserve anything.
	if err := l.Reserve(tx, "pink-widgets", "order-3", 1); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("order-3: %v", err)
	}
}

func TestInvariantDetectsExternalDrain(t *testing.T) {
	// An ill-behaved application action drains the pool below the reserved
	// sum; CheckInvariant must flag it (PM then rolls back, §8).
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "w", 10)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = l.Reserve(tx, "w", "a", 8)
	if _, err := rm.AdjustPool(tx, "w", -5); err != nil { // action bypasses escrow
		t.Fatal(err)
	}
	if err := l.CheckInvariant(tx, "w"); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("invariant check: %v", err)
	}
	if err := l.CheckAllInvariants(tx); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("all-invariants check: %v", err)
	}
}

func TestCheckAllInvariantsClean(t *testing.T) {
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "a", 5)
	seedPool(t, rm, store, "b", 5)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = l.Reserve(tx, "a", "x", 5)
	_ = l.Reserve(tx, "b", "y", 2)
	if err := l.CheckAllInvariants(tx); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRollsBackReservations(t *testing.T) {
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "w", 10)
	tx := store.Begin(txn.Block)
	_ = l.Reserve(tx, "w", "a", 10)
	_ = tx.Abort()
	check := store.Begin(txn.Block)
	defer check.Commit()
	total, _ := l.TotalReserved(check, "w")
	if total != 0 {
		t.Fatalf("reservations survived abort: %d", total)
	}
}

func TestConcurrentReservationsRespectCapacity(t *testing.T) {
	// Many clients race to reserve 1 unit each from a pool of 50; exactly
	// 50 must succeed.
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "w", 50)
	const clients = 80
	var wg sync.WaitGroup
	var mu sync.Mutex
	succeeded := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tx := store.Begin(txn.Block)
			err := l.Reserve(tx, "w", holderName(c), 1)
			if err != nil {
				_ = tx.Abort()
				if !errors.Is(err, ErrInsufficient) {
					t.Errorf("client %d: %v", c, err)
				}
				return
			}
			_ = tx.Commit()
			mu.Lock()
			succeeded++
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if succeeded != 50 {
		t.Fatalf("%d reservations succeeded, want exactly 50", succeeded)
	}
	check := store.Begin(txn.Block)
	defer check.Commit()
	if err := l.CheckInvariant(check, "w"); err != nil {
		t.Fatal(err)
	}
}

func holderName(c int) string {
	return "client-" + string(rune('A'+c%26)) + "-" + string(rune('0'+c/26))
}

// TestQuickEscrowInvariant drives random reserve/release/consume sequences
// and asserts the escrow invariant plus non-negative quantities throughout.
func TestQuickEscrowInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l, rm, store := newLedger(t)
		seedPool(t, rm, store, "w", int64(10+r.Intn(40)))
		holders := []string{"a", "b", "c"}
		tx := store.Begin(txn.Block)
		defer tx.Commit()
		for i := 0; i < 60; i++ {
			h := holders[r.Intn(len(holders))]
			qty := int64(1 + r.Intn(10))
			switch r.Intn(3) {
			case 0:
				_ = l.Reserve(tx, "w", h, qty)
			case 1:
				_ = l.Release(tx, "w", h, qty)
			case 2:
				_ = l.Consume(tx, "w", h, qty)
			}
			if err := l.CheckInvariant(tx, "w"); err != nil {
				t.Logf("invariant broken at step %d: %v", i, err)
				return false
			}
			p, err := rm.Pool(tx, "w")
			if err != nil || p.OnHand < 0 {
				t.Logf("pool state bad at step %d: %v %v", i, p, err)
				return false
			}
			for _, h := range holders {
				q, _ := l.Reserved(tx, "w", h)
				if q < 0 {
					t.Logf("negative reservation for %s at step %d", h, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAll(t *testing.T) {
	l, rm, store := newLedger(t)
	seedPool(t, rm, store, "widgets", 10)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	if err := l.Reserve(tx, "widgets", "alice", 7); err != nil {
		t.Fatal(err)
	}
	freed, err := l.ReleaseAll(tx, "widgets", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if freed != 7 {
		t.Fatalf("freed = %d, want 7", freed)
	}
	if got, _ := l.Reserved(tx, "widgets", "alice"); got != 0 {
		t.Fatalf("alice still holds %d", got)
	}
	if got, _ := l.Unreserved(tx, "widgets"); got != 10 {
		t.Fatalf("unreserved = %d, want 10", got)
	}
	// A holder with nothing reserved frees zero, without error.
	freed, err = l.ReleaseAll(tx, "widgets", "bob")
	if err != nil || freed != 0 {
		t.Fatalf("empty ReleaseAll = (%d, %v), want (0, nil)", freed, err)
	}
}
