package baseline

import (
	"errors"
	"sync"
)

// ErrDeadlock is returned to the session whose lock request would close a
// cycle in the waits-for graph. The session should release its locks and
// give up (the Deadlocked outcome).
var ErrDeadlock = errors.New("baseline: deadlock detected")

// lockTable grants long-duration exclusive locks on named resources to
// sessions — the lock service of the §1/§9 lock-based comparator. Requests
// on a held lock queue in FIFO order; a request that would close a cycle
// in the waits-for graph fails with ErrDeadlock instead of parking
// (victim = requester).
//
// With one lock mode every queued request conflicts with every request
// ahead of it, so a waiter waits for the holder and for each waiter ahead
// of it in the queue. The waits-for edges are derived from the queues at
// detection time, never cached, so they cannot go stale.
type lockTable struct {
	mu    sync.Mutex
	locks map[string]*lockEntry
	// held lists the locks each session holds, for releaseAll.
	held map[uint64][]string
	// waiting names the lock each parked session is queued on; a parked
	// session requests nothing else until it is granted or fails.
	waiting map[uint64]*lockEntry
}

// lockEntry is one held lock and the sessions queued for it.
type lockEntry struct {
	name   string
	holder uint64
	queue  []*lockWaiter
}

type lockWaiter struct {
	sid   uint64
	ready chan struct{} // closed when the lock is handed over
}

func newLockTable() *lockTable {
	return &lockTable{
		locks:   make(map[string]*lockEntry),
		held:    make(map[uint64][]string),
		waiting: make(map[uint64]*lockEntry),
	}
}

// acquire takes the named lock for session sid, parking until it is free.
// Re-acquiring a held lock is a no-op. It returns ErrDeadlock, without
// queuing, when waiting would deadlock; sid keeps whatever it already holds
// and should releaseAll.
func (lt *lockTable) acquire(sid uint64, name string) error {
	lt.mu.Lock()
	e := lt.locks[name]
	if e == nil {
		lt.locks[name] = &lockEntry{name: name, holder: sid}
		lt.held[sid] = append(lt.held[sid], name)
		lt.mu.Unlock()
		return nil
	}
	if e.holder == sid {
		lt.mu.Unlock()
		return nil
	}
	w := &lockWaiter{sid: sid, ready: make(chan struct{})}
	e.queue = append(e.queue, w)
	lt.waiting[sid] = e
	if lt.cycleFrom(sid) {
		e.queue = e.queue[:len(e.queue)-1]
		delete(lt.waiting, sid)
		lt.mu.Unlock()
		return ErrDeadlock
	}
	lt.mu.Unlock()
	<-w.ready
	return nil
}

// waitsFor calls fn with every session sid waits for: the holder of the
// lock it is queued on and every session queued ahead of it.
func (lt *lockTable) waitsFor(sid uint64, fn func(uint64)) {
	e := lt.waiting[sid]
	if e == nil {
		return
	}
	fn(e.holder)
	for _, w := range e.queue {
		if w.sid == sid {
			return
		}
		fn(w.sid)
	}
}

// cycleFrom reports whether the waits-for graph leads from start back to
// start. Only a new wait can close a cycle (a hand-over replaces the
// waiters' edges with a subset), so checking each new wait from its
// requester finds every deadlock.
func (lt *lockTable) cycleFrom(start uint64) bool {
	seen := map[uint64]bool{start: true}
	stack := []uint64{start}
	found := false
	for len(stack) > 0 && !found {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lt.waitsFor(u, func(v uint64) {
			if v == start {
				found = true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		})
	}
	return found
}

// releaseAll drops every lock sid holds, handing each to the first session
// queued for it.
func (lt *lockTable) releaseAll(sid uint64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for _, name := range lt.held[sid] {
		e := lt.locks[name]
		if len(e.queue) == 0 {
			delete(lt.locks, name)
			continue
		}
		next := e.queue[0]
		e.queue = e.queue[1:]
		e.holder = next.sid
		delete(lt.waiting, next.sid)
		lt.held[next.sid] = append(lt.held[next.sid], name)
		close(next.ready)
	}
	delete(lt.held, sid)
}
