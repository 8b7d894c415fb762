package baseline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/txn"
)

func newWorld(t *testing.T, pools map[string]int64) (*txn.Store, *resource.Manager) {
	t.Helper()
	store := txn.NewStore()
	rm, err := resource.NewManager(store)
	if err != nil {
		t.Fatal(err)
	}
	tx := store.Begin(txn.Block)
	for pool, qty := range pools {
		if err := rm.CreatePool(tx, pool, qty, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return store, rm
}

func newPromiseWorld(t *testing.T, pools map[string]int64) *core.Manager {
	t.Helper()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for pool, qty := range pools {
		if err := m.CreatePool(pool, qty, nil); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestLockingSingleOrder(t *testing.T) {
	store, rm := newWorld(t, map[string]int64{"w": 10})
	b := NewLocking(store, rm)
	out, err := b.RunOrder("w", 4, nil)
	if err != nil || out != Fulfilled {
		t.Fatalf("out=%v err=%v", out, err)
	}
	out, _ = b.RunOrder("w", 7, nil)
	if out != RejectedEarly {
		t.Fatalf("insufficient stock: out=%v", out)
	}
}

func TestLockingSerializesContendedOrders(t *testing.T) {
	store, rm := newWorld(t, map[string]int64{"w": 100})
	b := NewLocking(store, rm)
	const clients = 8
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := b.RunOrder("w", 1, func() { time.Sleep(10 * time.Millisecond) })
			if err != nil || out != Fulfilled {
				t.Errorf("out=%v err=%v", out, err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Serialized: total >= clients * think. Allow slack but it must be far
	// above a single think time.
	if elapsed < time.Duration(clients)*10*time.Millisecond {
		t.Fatalf("locking did not serialize: %v elapsed", elapsed)
	}
}

func TestLockingDeadlockOnOppositeOrder(t *testing.T) {
	store, rm := newWorld(t, map[string]int64{"a": 10, "b": 10})
	b := NewLocking(store, rm)
	var deadlocks atomic.Int64
	var wg sync.WaitGroup
	barrier := make(chan struct{})
	run := func(pools []string) {
		defer wg.Done()
		<-barrier
		for i := 0; i < 10; i++ {
			out, err := b.RunMultiOrder(pools, 0+1, func() { time.Sleep(time.Millisecond) })
			if err != nil {
				t.Error(err)
				return
			}
			if out == Deadlocked {
				deadlocks.Add(1)
			}
		}
	}
	wg.Add(2)
	go run([]string{"a", "b"})
	go run([]string{"b", "a"})
	close(barrier)
	wg.Wait()
	if deadlocks.Load() == 0 {
		t.Fatal("opposite-order lock acquisition never deadlocked (suspicious)")
	}
}

func TestCheckThenActLateFailures(t *testing.T) {
	// Two clients check 1 unit of stock, both pass, one fails late — the
	// §1 merchant scenario.
	store, rm := newWorld(t, map[string]int64{"w": 1})
	b := NewCheckThenAct(store, rm)
	gate := make(chan struct{})
	results := make(chan Outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			out, err := b.RunOrder("w", 1, func() { <-gate })
			if err != nil {
				t.Error(err)
			}
			results <- out
		}()
	}
	time.Sleep(20 * time.Millisecond) // both pass the check
	close(gate)
	a, bOut := <-results, <-results
	got := map[Outcome]int{a: 1}
	got[bOut]++
	if got[Fulfilled] != 1 || got[FailedLate] != 1 {
		t.Fatalf("outcomes = %v and %v, want one fulfilled one failed-late", a, bOut)
	}
}

func TestCheckThenActEarlyReject(t *testing.T) {
	store, rm := newWorld(t, map[string]int64{"w": 1})
	b := NewCheckThenAct(store, rm)
	out, err := b.RunOrder("w", 5, nil)
	if err != nil || out != RejectedEarly {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestPromiseOrdersNoLateFailures(t *testing.T) {
	// The promise regime turns every would-be late failure into an early
	// rejection: with 5 units and 10 clients wanting 1 each, exactly 5
	// fulfil and 5 reject early; nobody fails late.
	m := newPromiseWorld(t, map[string]int64{"w": 5})
	b := NewPromiseOrders(m)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var fulfilled, early, late atomic.Int64
	for c := 0; c < 10; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := b.RunOrder("w", 1, func() { <-gate })
			if err != nil {
				t.Error(err)
				return
			}
			switch out {
			case Fulfilled:
				fulfilled.Add(1)
			case RejectedEarly:
				early.Add(1)
			case FailedLate:
				late.Add(1)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if late.Load() != 0 {
		t.Fatalf("promises produced %d late failures", late.Load())
	}
	if fulfilled.Load() != 5 || early.Load() != 5 {
		t.Fatalf("fulfilled=%d early=%d, want 5/5", fulfilled.Load(), early.Load())
	}
}

func TestPromiseOrdersConcurrentWithThinkTime(t *testing.T) {
	// Unlike locking, promise holders think concurrently: total time is
	// far below clients*think.
	m := newPromiseWorld(t, map[string]int64{"w": 100})
	b := NewPromiseOrders(m)
	const clients = 8
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := b.RunOrder("w", 1, func() { time.Sleep(20 * time.Millisecond) })
			if err != nil || out != Fulfilled {
				t.Errorf("out=%v err=%v", out, err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > time.Duration(clients)*20*time.Millisecond/2 {
		t.Fatalf("promise orders appear serialized: %v for %d clients", elapsed, clients)
	}
}

func TestPromiseMultiOrderAtomicAndDeadlockFree(t *testing.T) {
	// The E4 scenario under promises: opposite-order resource demands
	// never deadlock because requests reject immediately instead of
	// blocking (§9).
	m := newPromiseWorld(t, map[string]int64{"a": 10, "b": 10})
	b := NewPromiseOrders(m)
	var wg sync.WaitGroup
	var late, dead atomic.Int64
	run := func(pools []string) {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			out, err := b.RunMultiOrder(pools, 1, func() { time.Sleep(time.Millisecond) })
			if err != nil {
				t.Error(err)
				return
			}
			switch out {
			case FailedLate:
				late.Add(1)
			case Deadlocked:
				dead.Add(1)
			}
		}
	}
	wg.Add(2)
	go run([]string{"a", "b"})
	go run([]string{"b", "a"})
	wg.Wait()
	if dead.Load() != 0 || late.Load() != 0 {
		t.Fatalf("deadlocked=%d late=%d, want 0/0", dead.Load(), late.Load())
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		Fulfilled: "fulfilled", RejectedEarly: "rejected-early",
		FailedLate: "failed-late", Deadlocked: "deadlocked", Outcome(9): "unknown",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}
