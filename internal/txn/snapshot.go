package txn

import (
	"fmt"
	"sort"
)

// This file is the lock-free read half of the store. Every committed
// transaction publishes a fresh immutable Snapshot of the full table state
// via an atomic pointer. Each table's rows live in a two-level
// copy-on-write tree (snapTable → snapNode → snapLeaf), so a commit copies
// one root, one 64-pointer node and one small leaf per touched key: the
// per-commit cost depends on what the transaction wrote, not on how many
// rows the table holds. Readers load the pointer and walk plain immutable
// structures — no store writer, no blocking behind the open transaction.
// This is the RCU/epoch pattern: writers never wait for readers, readers
// never wait for writers, and a reader's view is always some committed
// prefix of history (never a torn mid-transaction state).
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

// snapFanout is the width of each tree level: a table spreads its rows
// over snapFanout nodes of snapFanout leaves, created lazily. A leaf of a
// table of n rows holds about n/4096 of them; a commit copies only the
// leaves holding its touched keys.
const snapFanout = 64

// snapTable is one table's slice of a snapshot: the root of its tree.
type snapTable struct {
	nodes [snapFanout]*snapNode
	n     int // row count
}

// snapNode is the inner level of a table's tree.
type snapNode struct {
	leaves [snapFanout]*snapLeaf
}

// snapLeaf holds the rows whose keys hash to it, sorted by key. A sorted
// slice, not a map, so copying a leaf is one allocation whatever its size
// (a Go map costs more allocations once it outgrows one group).
type snapLeaf struct {
	ents []snapEntry
}

type snapEntry struct {
	key string
	row Row
}

// find returns the position of key in the leaf, or where it would go.
func (l *snapLeaf) find(key string) (int, bool) {
	lo, hi := 0, len(l.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.ents[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.ents) && l.ents[lo].key == key
}

// slotOf places key in the tree: FNV-1a inlined, because it sits on the
// per-Get hot path of every lock-free read, where the hash.Hash32
// interface would cost a heap allocation per lookup.
func slotOf(key string) (node, leaf int) {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h>>6) % snapFanout, int(h % snapFanout)
}

// get returns the row stored under key.
func (t *snapTable) get(key string) (Row, bool) {
	ni, li := slotOf(key)
	nd := t.nodes[ni]
	if nd == nil {
		return nil, false
	}
	lf := nd.leaves[li]
	if lf == nil {
		return nil, false
	}
	i, ok := lf.find(key)
	if !ok {
		return nil, false
	}
	return lf.ents[i].row, true
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
	row, ok := t.get(key)
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
	ents := make([]snapEntry, 0, t.n)
	for _, nd := range t.nodes {
		if nd == nil {
			continue
		}
		for _, lf := range nd.leaves {
			if lf != nil {
				ents = append(ents, lf.ents...)
			}
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	for _, e := range ents {
		if !fn(e.key, e.row.CloneRow()) {
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
	return t.n
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

// publishCommit publishes a snapshot reflecting the calling transaction's
// committed writes. The caller still holds the writer, so no row can change
// underneath the copy and publications never overlap; each folds in only
// its own touched keys on top of the previous snapshot.
//
// Copy-on-write needs no bookkeeping of its own: a root, node or leaf of
// the building snapshot that is still the very pointer the previous
// snapshot holds is shared with published state and is copied before its
// first change; anything else was created by this publication and is
// changed in place.
func (s *Store) publishCommit(touched []TableKey) {
	prev := s.snap.Load()
	next := &Snapshot{
		version: prev.version + 1,
		byName:  prev.byName,
		tables:  append(make([]*snapTable, 0, len(prev.tables)), prev.tables...),
	}
	for _, tk := range touched {
		idx, ok := prev.byName[tk.Table]
		if !ok {
			continue
		}
		live := s.tables[tk.Table]
		if live == nil {
			continue
		}
		old, st := prev.tables[idx], next.tables[idx]
		if st == old {
			st = &snapTable{nodes: old.nodes, n: old.n}
			next.tables[idx] = st
		}
		ni, li := slotOf(tk.Key)
		oldNode, nd := old.nodes[ni], st.nodes[ni]
		if nd == nil || nd == oldNode {
			fresh := &snapNode{}
			if nd != nil {
				fresh.leaves = nd.leaves
			}
			st.nodes[ni], nd = fresh, fresh
		}
		var oldLeaf *snapLeaf
		if oldNode != nil {
			oldLeaf = oldNode.leaves[li]
		}
		lf := nd.leaves[li]
		if lf == nil || lf == oldLeaf {
			fresh := &snapLeaf{}
			if lf != nil {
				fresh.ents = append(make([]snapEntry, 0, len(lf.ents)+1), lf.ents...)
			}
			nd.leaves[li], lf = fresh, fresh
		}
		i, found := lf.find(tk.Key)
		row, present := live.rows[tk.Key]
		switch {
		case present && found:
			// The committed Row object is shared with the live table; both
			// sides treat committed rows as immutable (Put replaces, never
			// mutates), so sharing is safe and Get clones on the way out.
			lf.ents[i].row = row
		case present:
			lf.ents = append(lf.ents, snapEntry{})
			copy(lf.ents[i+1:], lf.ents[i:])
			lf.ents[i] = snapEntry{key: tk.Key, row: row}
			st.n++
		case found:
			lf.ents = append(lf.ents[:i], lf.ents[i+1:]...)
			st.n--
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
