package txn

import (
	"fmt"
	"sort"
)

// This file is the lock-free read half of the store. Every committed
// transaction publishes a fresh immutable Snapshot of the full table state
// via an atomic pointer: copy-on-write of only the buckets its writes
// touched, so publication costs O(touched), not O(table). Readers load the
// pointer and walk plain maps — no store writer, no blocking behind the
// open transaction. This is the RCU/epoch pattern: writers never
// wait for readers, readers never wait for writers, and a reader's view is
// always some committed prefix of history (never a torn mid-transaction
// state).
//
// Snapshots carry two counters. Version increases by one per publication
// and identifies the snapshot within this store (caches key off it). Epoch
// is stamped from an external source when one is configured — the promise
// manager wires it to the event-bus sequence number, so a snapshot with
// Epoch E is guaranteed to reflect every commit whose lifecycle events
// were published with Seq <= E, and snapshot readers and Watch streams
// describe the same history.

// Reader is the read-only surface shared by *Tx and *Snapshot: both return
// clones, so code written against Reader runs identically inside a
// transaction (as the store's sole writer) and against a lock-free snapshot.
type Reader interface {
	// Get returns a clone of the row at (tbl, key), or ErrNotFound.
	Get(tbl, key string) (Row, error)
	// Scan visits a clone of every row of tbl in key order; returning
	// false stops early.
	Scan(tbl string, fn func(key string, row Row) bool) error
}

var (
	_ Reader = (*Tx)(nil)
	_ Reader = (*Snapshot)(nil)
)

// TableKey names one committed row change, for commit hooks.
type TableKey struct {
	Table, Key string
}

// snapshotBuckets fixes the copy-on-write granularity: each table's rows
// spread over this many immutable maps, and a commit copies only the
// buckets holding its touched keys (~1/64th of the table each). It must
// stay <= 64 so a publication can track copied buckets in one bitmask.
const snapshotBuckets = 64

// snapTable is one table's slice of a snapshot.
type snapTable struct {
	buckets [snapshotBuckets]map[string]Row
}

// bucketOf is FNV-1a inlined: it sits on the per-Get hot path of every
// lock-free read, where the hash.Hash32 interface would cost a heap
// allocation per lookup.
func bucketOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % snapshotBuckets)
}

// Snapshot is an immutable view of the store's committed state. It is safe
// for concurrent use by any number of readers and never changes once
// published; Get and Scan return clones, exactly like their Tx
// counterparts, so handing rows onward can never alias the snapshot.
type Snapshot struct {
	version uint64
	epoch   uint64
	// byName maps table name -> index in tables. The map itself is
	// immutable and shared across snapshots (replaced wholesale when a
	// table is created), so a commit's publication copies one small
	// pointer slice, never a map.
	byName map[string]int
	tables []*snapTable
}

// Version identifies this snapshot within its store: strictly increasing
// by one per committed publication.
func (s *Snapshot) Version() uint64 { return s.version }

// Epoch is the externally supplied commit epoch (see Store.SetEpochSource);
// equal to Version when no source is configured. The promise manager wires
// it to the event-bus sequence number: a snapshot with Epoch E reflects
// every commit whose events carry Seq <= E.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

func (s *Snapshot) table(tbl string) (*snapTable, error) {
	idx, ok := s.byName[tbl]
	if !ok {
		return nil, fmt.Errorf("txn: no such table %q", tbl)
	}
	return s.tables[idx], nil
}

// Get returns a clone of the row at (tbl, key) without taking any lock.
func (s *Snapshot) Get(tbl, key string) (Row, error) {
	t, err := s.table(tbl)
	if err != nil {
		return nil, err
	}
	row, ok := t.buckets[bucketOf(key)][key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, tbl, key)
	}
	return row.CloneRow(), nil
}

// Scan visits a clone of every row of tbl in key order without taking any
// lock; returning false stops early.
func (s *Snapshot) Scan(tbl string, fn func(key string, row Row) bool) error {
	t, err := s.table(tbl)
	if err != nil {
		return err
	}
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	keys := make([]string, 0, n)
	for _, b := range t.buckets {
		for k := range b {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn(k, t.buckets[bucketOf(k)][k].CloneRow()) {
			break
		}
	}
	return nil
}

// Len reports the number of rows in tbl (0 for unknown tables).
func (s *Snapshot) Len(tbl string) int {
	t, err := s.table(tbl)
	if err != nil {
		return 0
	}
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}

// Snapshot returns the store's latest committed snapshot. The returned
// value is immutable; a caller holding it observes one consistent committed
// state for as long as it likes while writers move on.
func (s *Store) Snapshot() *Snapshot {
	return s.snap.Load()
}

// SetEpochSource installs the function that stamps each published
// snapshot's Epoch (called once per commit, under the writer). Configure it
// before the store sees concurrent use.
func (s *Store) SetEpochSource(fn func() uint64) { s.epochFn = fn }

// SetCommitHook installs a function invoked after every snapshot
// publication with the fresh snapshot and the commit's touched keys.
// Invocations run under the store's writer, in publication order, so the
// hook can maintain derived indexes incrementally without its own locking,
// and anything holding a Tx on the store sees every earlier commit's hook
// complete.
// Configure it before the store sees concurrent use.
func (s *Store) SetCommitHook(fn func(snap *Snapshot, touched []TableKey)) { s.commitHook = fn }

// publishTable publishes a snapshot with tbl added, for CreateTable. The
// caller holds the writer.
func (s *Store) publishTable(tbl string) {
	prev := s.snap.Load()
	byName := make(map[string]int, len(prev.byName)+1)
	for n, i := range prev.byName {
		byName[n] = i
	}
	byName[tbl] = len(prev.tables)
	next := &Snapshot{
		version: prev.version + 1,
		epoch:   prev.epoch,
		byName:  byName,
		tables:  append(append(make([]*snapTable, 0, len(prev.tables)+1), prev.tables...), &snapTable{}),
	}
	if s.epochFn != nil {
		next.epoch = s.epochFn()
	} else {
		next.epoch = next.version
	}
	s.snap.Store(next)
}

// tableWork is one table's copy-on-write state inside a publication.
type tableWork struct {
	name   string
	live   *table
	st     *snapTable
	copied uint64 // bitmask of buckets already copy-on-written
}

// publishCommit publishes a snapshot reflecting the calling transaction's
// committed writes. The caller still holds the writer, so no row can change
// underneath the copy and publications never overlap; each folds in only
// its own touched keys on top of the previous snapshot.
func (s *Store) publishCommit(touched []TableKey) {
	prev := s.snap.Load()
	next := &Snapshot{
		version: prev.version + 1,
		byName:  prev.byName,
		tables:  append(make([]*snapTable, 0, len(prev.tables)), prev.tables...),
	}
	// A commit rarely touches more than a handful of tables; a linear
	// scan over this small stack array beats any map.
	var works [8]tableWork
	nWorks := 0
	for _, tk := range touched {
		var w *tableWork
		for i := 0; i < nWorks; i++ {
			if works[i].name == tk.Table {
				w = &works[i]
				break
			}
		}
		if w == nil {
			idx, ok := prev.byName[tk.Table]
			if !ok {
				continue
			}
			live := s.tables[tk.Table]
			if live == nil {
				continue
			}
			// First touch of this table (or a re-touch past the works
			// array): shallow-copy the building snapshot's snapTable so
			// published bucket arrays stay immutable and earlier writes of
			// this same publication are preserved.
			fresh := &snapTable{buckets: next.tables[idx].buckets}
			next.tables[idx] = fresh
			if nWorks < len(works) {
				works[nWorks] = tableWork{name: tk.Table, live: live, st: fresh}
				w = &works[nWorks]
				nWorks++
			} else {
				scratch := tableWork{name: tk.Table, live: live, st: fresh}
				w = &scratch
			}
		}
		b := bucketOf(tk.Key)
		if w.copied&(1<<b) == 0 {
			old := w.st.buckets[b]
			nb := make(map[string]Row, len(old)+1)
			for k, v := range old {
				nb[k] = v
			}
			w.st.buckets[b] = nb
			w.copied |= 1 << b
		}
		if row, ok := w.live.rows[tk.Key]; ok {
			// The committed Row object is shared with the live table; both
			// sides treat committed rows as immutable (Put replaces, never
			// mutates), so sharing is safe and Get clones on the way out.
			w.st.buckets[b][tk.Key] = row
		} else {
			delete(w.st.buckets[b], tk.Key)
		}
	}
	if s.epochFn != nil {
		next.epoch = s.epochFn()
	} else {
		next.epoch = next.version
	}
	s.snap.Store(next)
	if s.commitHook != nil {
		s.commitHook(next, touched)
	}
}

// touchedKeys dedupes the undo log into the set of (table, key) pairs this
// transaction wrote. Small logs (the overwhelmingly common case) dedupe by
// linear scan with zero allocation beyond the result.
func touchedKeys(undo []undoRecord) []TableKey {
	switch {
	case len(undo) == 0:
		return nil
	case len(undo) <= 32:
		out := make([]TableKey, 0, len(undo))
		for _, u := range undo {
			tk := TableKey{Table: u.table, Key: u.key}
			dup := false
			for _, e := range out {
				if e == tk {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, tk)
			}
		}
		return out
	default:
		seen := make(map[TableKey]bool, len(undo))
		out := make([]TableKey, 0, len(undo))
		for _, u := range undo {
			tk := TableKey{Table: u.table, Key: u.key}
			if !seen[tk] {
				seen[tk] = true
				out = append(out, tk)
			}
		}
		return out
	}
}
