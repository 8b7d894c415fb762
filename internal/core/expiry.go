package core

import (
	"container/heap"
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/txn"
)

// This file replaces the per-request expiry sweep — a scan of every active
// promise, the dominant linear cost under load — with a per-shard min-heap
// on deadlines driven by the injected clock. Expiry is now O(expired):
//
//   - every grant pushes an entry (and, when Config.ExpiryWarning is set, a
//     warning entry) and keeps one clock alarm scheduled for the heap top;
//   - at a deadline the alarm pops the due entries, lapses the promises in
//     one transaction of their own, frees their holds, and publishes
//     Expired (or ExpiryImminent) events — at the deadline, not at the next
//     request;
//   - the request path keeps exact availability without scanning: it peeks
//     the heap for entries already due (normally none, since the alarm ran
//     at the deadline) and lapses just those inside the request transaction.
//
// Entries are an index, not truth: a released or migrated-away promise
// leaves a stale entry behind, and the pop simply skips ids that are no
// longer active here. Clocks that do not implement clock.Alarmer get no
// alarms; expiry then happens on the request path only, still in
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

// expiryIndex owns one shard's deadline heap and the single clock alarm
// armed for its top.
type expiryIndex struct {
	mu      sync.Mutex
	h       expiryHeap
	nextSeq uint64
	alarmer clock.Alarmer // nil when the clock cannot alarm
	fire    func()        // the alarm callback New installs around shard.expireDue
	stop    func()
	alarmAt time.Time
}

// track registers entries and re-arms the alarm if one now fires earlier.
func (x *expiryIndex) track(entries ...expiryEntry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i := range entries {
		entries[i].seq = x.nextSeq
		x.nextSeq++
		heap.Push(&x.h, entries[i])
	}
	x.scheduleLocked()
}

// scheduleLocked keeps exactly one alarm armed, at the heap top.
func (x *expiryIndex) scheduleLocked() { x.armLocked(time.Time{}, false) }

// armLocked is the single-armed-alarm invariant: one alarm, at the heap
// top (never earlier than floor). force re-arms even when an alarm is
// already pending at or before the top — the retry/backoff path.
func (x *expiryIndex) armLocked(floor time.Time, force bool) {
	if x.alarmer == nil || len(x.h) == 0 {
		return
	}
	at := x.h[0].at
	if at.Before(floor) {
		at = floor
	}
	if !force && x.stop != nil && !x.alarmAt.After(at) {
		return // the armed alarm fires first (or at the same instant)
	}
	if x.stop != nil {
		x.stop()
	}
	x.alarmAt = at
	x.stop = x.alarmer.AfterFunc(at, x.fire)
}

// alarmConsumed retires the armed alarm before a deadline pass, so the
// pass's final schedule re-arms fresh. Stopping is a no-op when the alarm
// itself triggered the pass; it keeps the single-armed-alarm invariant
// whatever started the pass.
func (x *expiryIndex) alarmConsumed() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.stop != nil {
		x.stop()
	}
	x.stop = nil
	x.alarmAt = time.Time{}
}

// dueEntries returns copies of every entry due at now, leaving the heap
// untouched — entries are removed only after the transaction that
// processed them commits (removeDue), so a concurrent request's own due
// check never races a window where an entry is gone but its promise's
// holds are not yet freed. O(1) when nothing is due, O(k log n) otherwise.
func (x *expiryIndex) dueEntries(now time.Time) []expiryEntry {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.h) == 0 || x.h[0].at.After(now) {
		return nil
	}
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
// concurrent remover is harmless) and re-arms the alarm for the new top.
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
	x.scheduleLocked()
}

// reschedule re-arms the alarm for the heap top, never earlier than floor —
// the retry backoff after a failed expiry transaction.
func (x *expiryIndex) reschedule(floor time.Time) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.armLocked(floor, true)
}

// shutdown cancels the armed alarm and empties the heap so no further
// deadline passes fire — engine Close. Entries are not processed; a durable
// engine re-arms them from its store on the next open.
func (x *expiryIndex) shutdown() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.stop != nil {
		x.stop()
	}
	x.stop = nil
	x.alarmAt = time.Time{}
	x.h = nil
}

// trackExpiry indexes one granted (or migrated-in) promise for deadline
// processing.
func (m *shard) trackExpiry(id string, expires time.Time) {
	entries := []expiryEntry{{at: expires, id: id}}
	if w := m.cfg.ExpiryWarning; w > 0 {
		entries = append(entries, expiryEntry{at: expires.Add(-w), id: id, warn: true})
	}
	m.exp.track(entries...)
}

// expireDue is the alarm callback's body: under the shard lock — expiry
// mutates the store, so the reserve/confirm pipeline's sole-user invariant
// must hold — it lapses every promise whose deadline passed, publishes
// warning events for promises entering their expiry window, and re-arms
// the alarm. The caller syncs the log once the lock is released
// (Manager.expireDue).
func (m *shard) expireDue() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.exp.alarmConsumed()
	now := m.clk.Now()
	due := m.exp.dueEntries(now)
	if len(due) == 0 {
		m.exp.reschedule(now)
		return nil
	}
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
			// Leave the expire entries in the heap and retry after a short
			// backoff (the warn entries were fully processed; remove them
			// so a warning never fires twice).
			m.exp.removeDue(now, warns)
			m.exp.reschedule(now.Add(100 * time.Millisecond))
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
