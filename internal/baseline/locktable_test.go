package baseline

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// acquireAsync runs acquire on another goroutine; the channel yields its
// result.
func acquireAsync(lt *lockTable, sid uint64, name string) <-chan error {
	got := make(chan error, 1)
	go func() { got <- lt.acquire(sid, name) }()
	return got
}

// waitQueued blocks until n sessions are parked in lt, so a test can build
// its waits-for graph deterministically.
func waitQueued(t *testing.T, lt *lockTable, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		lt.mu.Lock()
		queued := len(lt.waiting)
		lt.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions queued, want %d", queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// granted fails unless got yields nil within a second.
func granted(t *testing.T, got <-chan error, who string) {
	t.Helper()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s never granted", who)
	}
}

func TestAcquireExclusiveConflicts(t *testing.T) {
	lt := newLockTable()
	if err := lt.acquire(1, "r"); err != nil {
		t.Fatal(err)
	}
	got := acquireAsync(lt, 2, "r")
	waitQueued(t, lt, 1)
	select {
	case err := <-got:
		t.Fatalf("second session shared an exclusive lock: %v", err)
	default:
	}
	lt.releaseAll(1)
	granted(t, got, "session 2 after release")
}

func TestAcquireReentrant(t *testing.T) {
	lt := newLockTable()
	for i := 0; i < 2; i++ {
		if err := lt.acquire(1, "r"); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if held := lt.held[1]; len(held) != 1 {
		t.Fatalf("re-acquire recorded the lock %d times", len(held))
	}
	lt.releaseAll(1)
	if len(lt.locks) != 0 {
		t.Fatalf("locks left after release: %v", lt.locks)
	}
}

func TestBlockingHandoff(t *testing.T) {
	lt := newLockTable()
	if err := lt.acquire(1, "r"); err != nil {
		t.Fatal(err)
	}
	got := acquireAsync(lt, 2, "r")
	select {
	case err := <-got:
		t.Fatalf("acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lt.releaseAll(1)
	granted(t, got, "waiter")
}

func TestFIFOHandoffOrder(t *testing.T) {
	lt := newLockTable()
	if err := lt.acquire(1, "r"); err != nil {
		t.Fatal(err)
	}
	second := acquireAsync(lt, 2, "r")
	waitQueued(t, lt, 1)
	third := acquireAsync(lt, 3, "r")
	waitQueued(t, lt, 2)
	lt.releaseAll(1)
	granted(t, second, "first waiter")
	select {
	case err := <-third:
		t.Fatalf("second waiter overtook the first: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lt.releaseAll(2)
	granted(t, third, "second waiter")
}

func TestReleaseAllWakesEveryLock(t *testing.T) {
	lt := newLockTable()
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		if err := lt.acquire(1, n); err != nil {
			t.Fatal(err)
		}
	}
	var waiters []<-chan error
	for i, n := range names {
		waiters = append(waiters, acquireAsync(lt, uint64(10+i), n))
	}
	waitQueued(t, lt, len(names))
	lt.releaseAll(1)
	for i, got := range waiters {
		granted(t, got, "waiter on "+names[i])
	}
}

func TestDeadlockDetection(t *testing.T) {
	lt := newLockTable()
	if err := lt.acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := lt.acquire(2, "b"); err != nil {
		t.Fatal(err)
	}
	step := acquireAsync(lt, 1, "b") // 1 waits on 2
	waitQueued(t, lt, 1)
	// 2 requests a held by 1: closes the cycle; 2 must get ErrDeadlock.
	if err := lt.acquire(2, "a"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// The victim gives up its locks; session 1 proceeds.
	lt.releaseAll(2)
	granted(t, step, "session 1 after victim release")
}

func TestDeadlockThreeWay(t *testing.T) {
	lt := newLockTable()
	for sid, name := range map[uint64]string{1: "a", 2: "b", 3: "c"} {
		if err := lt.acquire(sid, name); err != nil {
			t.Fatal(err)
		}
	}
	first := acquireAsync(lt, 1, "b")
	waitQueued(t, lt, 1)
	second := acquireAsync(lt, 2, "c")
	waitQueued(t, lt, 2)
	if err := lt.acquire(3, "a"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	lt.releaseAll(3)
	granted(t, second, "session 2")
	lt.releaseAll(2)
	granted(t, first, "session 1")
}

// TestDeadlockThroughQueuedWaiter closes a cycle whose path runs through a
// session that is queued on a lock, not holding it, and that waits behind
// another queued session rather than directly on the holder:
//
//	1 holds a; 4 queues on a; 3 holds c and queues on a behind 4;
//	2 holds b and queues on c (2 -> 3); 1 requests b (1 -> 2 -> 3 -> 1).
func TestDeadlockThroughQueuedWaiter(t *testing.T) {
	lt := newLockTable()
	for sid, name := range map[uint64]string{1: "a", 2: "b", 3: "c"} {
		if err := lt.acquire(sid, name); err != nil {
			t.Fatal(err)
		}
	}
	four := acquireAsync(lt, 4, "a")
	waitQueued(t, lt, 1)
	three := acquireAsync(lt, 3, "a")
	waitQueued(t, lt, 2)
	two := acquireAsync(lt, 2, "c")
	waitQueued(t, lt, 3)
	if err := lt.acquire(1, "b"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle through a queued waiter: want ErrDeadlock, got %v", err)
	}
	// Unwind: 1 gives up a, which passes to 4, then 3; 3's release of c
	// lets 2 through.
	lt.releaseAll(1)
	granted(t, four, "session 4")
	lt.releaseAll(4)
	granted(t, three, "session 3")
	lt.releaseAll(3)
	granted(t, two, "session 2")
	lt.releaseAll(2)
	if len(lt.locks) != 0 || len(lt.waiting) != 0 {
		t.Fatalf("table not empty after unwind: locks=%v waiting=%v", lt.locks, lt.waiting)
	}
}

// TestLockTableStressNoLostWakeups hammers the lock table with sessions
// acquiring random lock sets in random orders, releasing everything on
// ErrDeadlock. Every session must finish: a lost wakeup or an undetected
// deadlock would hang the test (guarded by a watchdog).
func TestLockTableStressNoLostWakeups(t *testing.T) {
	lt := newLockTable()
	locks := []string{"a", "b", "c", "d", "e"}
	const workers, rounds = 12, 60

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < rounds; round++ {
				sid := uint64(w*rounds + round + 1)
				for i, n := 0, 1+r.Intn(3); i < n; i++ {
					if err := lt.acquire(sid, locks[r.Intn(len(locks))]); err != nil {
						if !errors.Is(err, ErrDeadlock) {
							t.Errorf("worker %d: %v", w, err)
						}
						break
					}
				}
				lt.releaseAll(sid)
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lock table stress hung: lost wakeup or undetected deadlock")
	}
	if len(lt.locks) != 0 || len(lt.waiting) != 0 || len(lt.held) != 0 {
		t.Fatalf("table not empty after stress: %d locks, %d waiting, %d holders", len(lt.locks), len(lt.waiting), len(lt.held))
	}
}
