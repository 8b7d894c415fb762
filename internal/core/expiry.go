package core

import (
	"container/heap"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/txn"
)

// This file replaces the per-request expiry sweep — a scan of every active
// promise, the dominant linear cost under load — with a per-shard min-heap
// on deadlines and one clock alarm for the whole engine. Expiry is
// O(expired):
//
//   - every grant pushes an entry into its shard's heap (and, when
//     Config.ExpiryWarning is set, a warning entry) and lowers the engine's
//     alarm if the entry falls due before the armed instant;
//   - at a deadline the alarm runs the deadline pass (Manager.expireDue,
//     one at a time): in shard order it visits each shard whose heap top is
//     due, lapses the due promises in one transaction of their own, frees
//     their holds, and publishes Expired (or ExpiryImminent) events — at
//     the deadline, not at the next request;
//   - the request path keeps exact availability without scanning: it peeks
//     its shard's heap for entries already due (normally none, since the
//     pass ran at the deadline) and lapses just those inside the request
//     transaction.
//
// Entries are an index, not truth: a released or migrated-away promise
// leaves a stale entry behind, and the pop simply skips ids that are no
// longer active here. Clocks that do not implement clock.Alarmer get no
// alarm; expiry then happens on the request path only, still in
// O(expired).

// expiryEntry is one scheduled wake-up for a promise: its deadline, or the
// earlier warning instant. seq identifies the entry so processed entries
// can be removed exactly, after their transaction commits.
type expiryEntry struct {
	at   time.Time
	id   string
	warn bool
	seq  uint64
}

// expiryHeap is a min-heap of entries by instant.
type expiryHeap []expiryEntry

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(expiryEntry)) }
func (h *expiryHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// expiryIndex owns one shard's deadline heap.
type expiryIndex struct {
	mu      sync.Mutex
	h       expiryHeap
	nextSeq uint64
}

// track registers entries.
func (x *expiryIndex) track(entries ...expiryEntry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i := range entries {
		entries[i].seq = x.nextSeq
		x.nextSeq++
		heap.Push(&x.h, entries[i])
	}
}

// top returns the earliest entry's instant; ok is false on an empty heap.
func (x *expiryIndex) top() (at time.Time, ok bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.h) == 0 {
		return time.Time{}, false
	}
	return x.h[0].at, true
}

// due reports whether an entry is due at now, in O(1).
func (x *expiryIndex) due(now time.Time) bool {
	at, ok := x.top()
	return ok && !at.After(now)
}

// dueEntries returns copies of every entry due at now, leaving the heap
// untouched — entries are removed only after the transaction that
// processed them commits (removeDue), so a concurrent request's own due
// check never races a window where an entry is gone but its promise's
// holds are not yet freed. O(1) when nothing is due, O(k log n) otherwise.
func (x *expiryIndex) dueEntries(now time.Time) []expiryEntry {
	x.mu.Lock()
	defer x.mu.Unlock()
	var due []expiryEntry
	for len(x.h) > 0 && !x.h[0].at.After(now) {
		due = append(due, heap.Pop(&x.h).(expiryEntry))
	}
	for _, e := range due {
		heap.Push(&x.h, e)
	}
	return due
}

// removeDue deletes the given processed entries (matched by seq, so a
// concurrent remover is harmless).
func (x *expiryIndex) removeDue(now time.Time, processed []expiryEntry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	done := make(map[uint64]bool, len(processed))
	for _, e := range processed {
		done[e.seq] = true
	}
	var keep []expiryEntry
	for len(x.h) > 0 && !x.h[0].at.After(now) {
		e := heap.Pop(&x.h).(expiryEntry)
		if !done[e.seq] {
			keep = append(keep, e)
		}
	}
	for _, e := range keep {
		heap.Push(&x.h, e)
	}
}

// shutdown empties the heap so no further deadline passes fire — engine
// Close. Entries are not processed; a durable engine re-arms them from its
// store on the next open.
func (x *expiryIndex) shutdown() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.h = nil
}

// deadlineAlarm is the engine's one expiry alarm, armed at the earliest
// heap top across all shards, and the single-flight guard around the
// deadline pass it runs.
type deadlineAlarm struct {
	alarmer clock.Alarmer // nil when the clock cannot alarm
	pass    func()        // Manager.expireDue

	// mu guards arming. at mirrors the pending alarm's instant in Unix
	// nanoseconds (math.MaxInt64 when none is pending), so lower skips mu
	// when the pending alarm fires first. gen tells the pending alarm's
	// firing from a replaced one's that had already fired.
	mu   sync.Mutex
	stop func()
	gen  uint64
	at   atomic.Int64

	// runs is 0 while no pass runs, 1 while one runs, and more once a
	// firing has asked the running pass to run again.
	runs atomic.Int32
}

func newDeadlineAlarm(clk clock.Clock, pass func()) *deadlineAlarm {
	a := &deadlineAlarm{pass: pass}
	a.alarmer, _ = clk.(clock.Alarmer)
	a.at.Store(math.MaxInt64)
	return a
}

// lower arms the alarm at t unless the pending alarm fires no later; it
// never moves the alarm later. The common case reads one atomic, so grants
// on different shards share no lock.
func (a *deadlineAlarm) lower(t time.Time) {
	if a.alarmer == nil || t.UnixNano() >= a.at.Load() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if t.UnixNano() >= a.at.Load() {
		return
	}
	if a.stop != nil {
		a.stop()
	}
	a.gen++
	gen := a.gen
	a.at.Store(t.UnixNano())
	a.stop = a.alarmer.AfterFunc(t, func() { a.fire(gen) })
}

// fire is the alarm callback. Once the pending alarm fires, nothing is
// pending, so a deadline tracked during the pass arms afresh and is never
// left without a wake-up. Only one pass runs at a time: a firing that
// finds one running asks it to run once more and returns, so firings never
// queue up behind the shard locks.
func (a *deadlineAlarm) fire(gen uint64) {
	a.mu.Lock()
	if gen == a.gen {
		a.stop = nil
		a.at.Store(math.MaxInt64)
	}
	a.mu.Unlock()
	if a.runs.Add(1) > 1 {
		return
	}
	for {
		a.pass()
		if a.runs.CompareAndSwap(1, 0) {
			return
		}
		a.runs.Store(1)
	}
}

// shutdown cancels the pending alarm — engine Close.
func (a *deadlineAlarm) shutdown() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stop != nil {
		a.stop()
	}
	a.stop = nil
	a.at.Store(math.MaxInt64)
}

// trackExpiry indexes one granted (or migrated-in) promise for deadline
// processing.
func (m *shard) trackExpiry(id string, expires time.Time) {
	entries := []expiryEntry{{at: expires, id: id}}
	if w := m.cfg.ExpiryWarning; w > 0 {
		entries = append(entries, expiryEntry{at: expires.Add(-w), id: id, warn: true})
	}
	m.exp.track(entries...)
	m.alarm.lower(entries[len(entries)-1].at)
}

// expireDue is one shard's part of a deadline pass: under the shard lock —
// expiry mutates the store, so the reserve/confirm pipeline's sole-user
// invariant must hold — it lapses every promise whose deadline passed and
// publishes warning events for promises entering their expiry window. The
// caller re-arms the alarm and syncs the log once the lock is released
// (Manager.expireDue).
func (m *shard) expireDue() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clk.Now()
	due := m.exp.dueEntries(now)
	var warns, exps []expiryEntry
	for _, e := range due {
		if e.warn {
			warns = append(warns, e)
		} else {
			exps = append(exps, e)
		}
	}

	if len(warns) > 0 {
		var events []Event
		tx := m.store.Begin(txn.Block)
		for _, e := range warns {
			p, err := m.promise(tx, e.id)
			if err != nil || p.State != Active || !now.Before(p.Expires) {
				continue // lapsed, released or gone: the expire entry (or nothing) handles it
			}
			events = append(events, Event{
				Type: EventExpiryImminent, PromiseID: p.ID, Client: p.Client,
				Time: now, Expires: p.Expires,
			})
		}
		// Commit and publish under the commit-order lock: the store's
		// writer guarantees any release of these promises commits after
		// this transaction, and pubMu then orders its event after ours.
		m.pubMu.Lock()
		_ = tx.Commit()
		m.bus.publish(events...)
		m.pubMu.Unlock()
	}

	if len(exps) > 0 {
		st, err := m.expireBatch(now, exps)
		if err != nil {
			// Leave the expire entries in the heap for the caller's
			// backoff retry (the warn entries were fully processed; remove
			// them so a warning never fires twice).
			m.exp.removeDue(now, warns)
			return err
		}
		m.metrics.expirations.Add(st.expired)
		for _, f := range st.postCommit {
			f()
		}
	}
	m.exp.removeDue(now, due)
	return nil
}

// expireBatch lapses the given due promises in one transaction and
// publishes their Expired events under the commit-order lock.
func (m *shard) expireBatch(now time.Time, exps []expiryEntry) (*execState, error) {
	st := &execState{}
	tx := m.store.Begin(txn.Block)
	for _, e := range exps {
		p, err := m.promise(tx, e.id)
		switch {
		case errors.Is(err, ErrPromiseNotFound):
			continue // migrated away, or an id this store never held
		case err != nil:
		case p.State != Active || now.Before(p.Expires):
			continue // already terminal, or renewed under a later deadline
		default:
			err = m.releasePromise(tx, st, p, Expired)
		}
		if err != nil {
			_ = tx.Abort()
			return nil, err
		}
	}
	m.pubMu.Lock()
	_ = tx.Commit()
	m.bus.publish(st.events...)
	m.pubMu.Unlock()
	return st, nil
}
