// Package txn is the local ACID transaction substrate required by the
// prototype architecture of paper §8: "The solution we adopted here was to
// wrap each promise operation in a transaction … all accesses to the
// resource manager, as well as changes to the promise table are
// transactional, and this gives us the required level of isolation between
// concurrent activities. Note that the transaction is local to a trust
// domain and short-duration."
//
// A Store admits one writer at a time: Begin takes the store's writer
// mutex and Commit or Abort releases it, so transactions on one store run
// serially — the single-threaded-partition design of H-Store (Stonebraker
// et al., VLDB 2007). Each transaction keeps an undo log for rollback and
// savepoints, and every commit publishes an immutable snapshot that
// read-only callers use without waiting for the writer (snapshot.go).
// Concurrency comes from running many stores side by side (one per shard),
// not from interleaving transactions inside one.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Row is a value stored in a table. Rows must be deep-copyable so that a
// transaction never aliases committed state: Get returns a clone, Put stores
// a clone.
type Row interface {
	// CloneRow returns a deep copy.
	CloneRow() Row
}

var (
	// ErrNotFound is returned by Get for a missing key.
	ErrNotFound = errors.New("txn: key not found")
	// ErrTxDone is returned when operating on a committed or aborted
	// transaction.
	ErrTxDone = errors.New("txn: transaction already finished")
)

// WaitPolicy is Begin's argument. A store has one writer, so every Begin
// waits for it and Block is the only policy; the parameter remains so
// existing callers compile.
type WaitPolicy int

// Block waits for the store's writer.
const Block WaitPolicy = 0

// table holds committed rows.
type table struct {
	rows map[string]Row
}

// Store is an in-memory multi-table store with single-writer transactions
// and undo-log rollback. It models the Resource Manager's storage and the
// promise table of the prototype (§8).
//
// Alongside the transactional surface the store maintains a lock-free read
// path: every commit publishes an immutable versioned Snapshot of the full
// committed state (see snapshot.go), so read-only callers can observe a
// consistent view without waiting for the writer.
type Store struct {
	// writer admits one transaction at a time. It guards tables and every
	// row map, and serializes snapshot publication and the commit hook.
	writer sync.Mutex
	tables map[string]*table

	// snap is the latest published snapshot. epochFn and commitHook are
	// optional, set before concurrent use (see SetEpochSource /
	// SetCommitHook).
	snap       atomic.Pointer[Snapshot]
	epochFn    func() uint64
	commitHook func(snap *Snapshot, touched []TableKey)
}

// NewStore returns an empty Store.
func NewStore() *Store {
	s := &Store{tables: make(map[string]*table)}
	s.snap.Store(&Snapshot{byName: map[string]int{}})
	return s
}

// CreateTable registers a table. Creating an existing table is an error so
// schema typos surface early. It waits for the writer like Begin.
func (s *Store) CreateTable(name string) error {
	s.writer.Lock()
	defer s.writer.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("txn: table %q already exists", name)
	}
	s.tables[name] = &table{rows: make(map[string]Row)}
	s.publishTable(name)
	return nil
}

// undoRecord captures the pre-image of one modified key.
type undoRecord struct {
	table, key string
	prev       Row // nil when key did not exist
}

// Tx is a transaction: the store's sole writer from Begin until Commit or
// Abort. A Tx is used by a single goroutine.
type Tx struct {
	store *Store
	// undo records one pre-image per write (not deduplicated per key, so
	// that savepoint rollback restores intermediate states correctly;
	// reverse replay makes the earliest pre-image win on full abort).
	undo []undoRecord
	done bool
}

// Begin waits until the store has no open transaction and starts one. The
// policy argument is vestigial (see WaitPolicy).
//
// Every transaction must end in Commit or Abort: an abandoned Tx blocks
// every later Begin on the store. Two rules keep callers deadlock-free:
//
//   - Lock order: a caller that also holds an outer lock (a shard mutex)
//     takes it before Begin, never while holding a Tx.
//   - No re-entry: a goroutine holding a Tx must not Begin again on the
//     same store, directly or through code it calls. Suppliers and actions
//     must therefore never call back into the engine that runs them.
func (s *Store) Begin(WaitPolicy) *Tx {
	s.writer.Lock()
	return &Tx{store: s}
}

func (t *Tx) lookupTable(name string) (*table, error) {
	tbl := t.store.tables[name]
	if tbl == nil {
		return nil, fmt.Errorf("txn: no such table %q", name)
	}
	return tbl, nil
}

// Get returns a clone of the row at (tbl, key).
func (t *Tx) Get(tbl, key string) (Row, error) {
	if t.done {
		return nil, ErrTxDone
	}
	tab, err := t.lookupTable(tbl)
	if err != nil {
		return nil, err
	}
	row, ok := tab.rows[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, tbl, key)
	}
	return row.CloneRow(), nil
}

// Put stores a clone of row at (tbl, key), recording the key's pre-image in
// the undo log.
func (t *Tx) Put(tbl, key string, row Row) error {
	if t.done {
		return ErrTxDone
	}
	tab, err := t.lookupTable(tbl)
	if err != nil {
		return err
	}
	t.recordUndo(tab, tbl, key)
	tab.rows[key] = row.CloneRow()
	return nil
}

// Delete removes (tbl, key). Deleting a missing key returns ErrNotFound.
func (t *Tx) Delete(tbl, key string) error {
	if t.done {
		return ErrTxDone
	}
	tab, err := t.lookupTable(tbl)
	if err != nil {
		return err
	}
	if _, ok := tab.rows[key]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, tbl, key)
	}
	t.recordUndo(tab, tbl, key)
	delete(tab.rows, key)
	return nil
}

// Scan visits every row of tbl in key order. fn receives clones taken
// before the first call, so fn may write to the table; returning false
// stops the scan early.
func (t *Tx) Scan(tbl string, fn func(key string, row Row) bool) error {
	if t.done {
		return ErrTxDone
	}
	tab, err := t.lookupTable(tbl)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(tab.rows))
	for k := range tab.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = tab.rows[k].CloneRow()
	}
	for i, k := range keys {
		if !fn(k, rows[i]) {
			break
		}
	}
	return nil
}

// Writes reports how many writes the transaction currently has in effect
// (undo-log length; savepoint rollback truncates it). Zero means the
// transaction has not modified any table state: everything it could read is
// exactly the committed state.
func (t *Tx) Writes() int { return len(t.undo) }

// Touched returns the distinct (table, key) pairs the transaction's writes
// currently in effect changed, in first-write order. Writes undone by
// RollbackTo drop out, so the result is exactly what Commit would publish;
// a fresh transaction touches nothing.
func (t *Tx) Touched() []TableKey { return touchedKeys(t.undo) }

// recordUndo appends the pre-image of (tbl, key).
func (t *Tx) recordUndo(tab *table, tbl, key string) {
	var prev Row
	if old, ok := tab.rows[key]; ok {
		prev = old.CloneRow()
	}
	t.undo = append(t.undo, undoRecord{table: tbl, key: key, prev: prev})
}

// undoTo replays the undo log in reverse down to position mark.
func (t *Tx) undoTo(mark int) {
	for i := len(t.undo) - 1; i >= mark; i-- {
		u := t.undo[i]
		tab := t.store.tables[u.table]
		if tab == nil {
			continue
		}
		if u.prev == nil {
			delete(tab.rows, u.key)
		} else {
			tab.rows[u.key] = u.prev.CloneRow()
		}
	}
	t.undo = t.undo[:mark]
}

// Commit makes the transaction's writes durable (in-memory), publishes a
// fresh snapshot covering them and runs the commit hook — both before the
// writer is released, so snapshots and hook calls follow commit order — and
// then releases the writer.
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	if touched := touchedKeys(t.undo); len(touched) > 0 {
		t.store.publishCommit(touched)
	}
	t.undo = nil
	t.store.writer.Unlock()
	return nil
}

// Abort rolls back every write via the undo log (in reverse order) and
// releases the writer. The §8 prototype relies on this to undo application
// actions that violated unrelated promises.
func (t *Tx) Abort() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	t.undoTo(0)
	t.undo = nil
	t.store.writer.Unlock()
	return nil
}

// Done reports whether the transaction has committed or aborted.
func (t *Tx) Done() bool { return t.done }
