// Package escrow implements the "Resource Pool" technique of paper §5 for
// anonymous resources, in the style of O'Neil's escrow transactional method
// [8]: "when we promise that we can supply 10 widgets, we remove 10 widgets
// from the pool of available widgets and place them in the allocated pool.
// The digital equivalent can be implemented by keeping a count of available
// and allocated items in the record corresponding to each type of
// resource."
//
// A Ledger keeps, per pool, the quantities reserved by each holder. The
// escrow invariant is
//
//	sum(reserved quantities) <= pool quantity on hand
//
// which is exactly §3.1: "the only constraint being that the sum of all
// promised resources should not exceed the resources that are actually
// available." Because the ledger lives in the same transactional store as
// the resource manager, a promise grant and its reservation commit or roll
// back together (§8).
package escrow

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/resource"
	"repro/internal/txn"
)

// Table is the store table holding escrow entries.
const Table = "escrow"

// ErrInsufficient is returned when a reservation would overdraw the pool.
var ErrInsufficient = errors.New("escrow: insufficient unreserved quantity")

// ErrNoReservation is returned when releasing or consuming more than the
// holder has reserved.
var ErrNoReservation = errors.New("escrow: holder has no such reservation")

// entry is the per-pool escrow record.
type entry struct {
	pool     string
	reserved map[string]int64 // holder -> quantity
}

// CloneRow implements txn.Row.
func (e *entry) CloneRow() txn.Row {
	c := &entry{pool: e.pool, reserved: make(map[string]int64, len(e.reserved))}
	for k, v := range e.reserved {
		c.reserved[k] = v
	}
	return c
}

// entryJSON is the checkpoint/WAL wire form of an entry (the struct's own
// fields are unexported by design; durability needs a stable encoding).
type entryJSON struct {
	Pool     string           `json:"pool"`
	Reserved map[string]int64 `json:"reserved"`
}

// MarshalJSON implements json.Marshaler for checkpoint serialization.
func (e *entry) MarshalJSON() ([]byte, error) {
	return json.Marshal(entryJSON{Pool: e.pool, Reserved: e.reserved})
}

// UnmarshalJSON implements json.Unmarshaler for checkpoint recovery.
func (e *entry) UnmarshalJSON(data []byte) error {
	var j entryJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Reserved == nil {
		j.Reserved = make(map[string]int64)
	}
	e.pool, e.reserved = j.Pool, j.Reserved
	return nil
}

// DecodeRow decodes a serialized escrow entry back into a store row — the
// escrow table's codec for WAL/checkpoint recovery.
func DecodeRow(data []byte) (txn.Row, error) {
	e := &entry{}
	if err := json.Unmarshal(data, e); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *entry) total() int64 {
	var t int64
	for _, q := range e.reserved {
		t += q
	}
	return t
}

// Ledger tracks escrow reservations against pools managed by a
// resource.Manager sharing the same store.
type Ledger struct {
	store *txn.Store
	rm    *resource.Manager
}

// NewLedger creates the escrow table and returns a Ledger.
func NewLedger(store *txn.Store, rm *resource.Manager) (*Ledger, error) {
	if err := store.CreateTable(Table); err != nil {
		return nil, err
	}
	return &Ledger{store: store, rm: rm}, nil
}

func (l *Ledger) load(r txn.Reader, pool string) (*entry, error) {
	row, err := r.Get(Table, pool)
	if errors.Is(err, txn.ErrNotFound) {
		return &entry{pool: pool, reserved: make(map[string]int64)}, nil
	}
	if err != nil {
		return nil, err
	}
	return row.(*entry), nil
}

// Reserve sets aside qty units of pool for holder, enforcing the escrow
// invariant against the pool's current quantity on hand. Multiple
// reservations by the same holder accumulate.
func (l *Ledger) Reserve(tx *txn.Tx, pool, holder string, qty int64) error {
	if qty <= 0 {
		return fmt.Errorf("escrow: reserve quantity must be positive, got %d", qty)
	}
	p, err := l.rm.Pool(tx, pool)
	if err != nil {
		return err
	}
	e, err := l.load(tx, pool)
	if err != nil {
		return err
	}
	if e.total()+qty > p.OnHand {
		return fmt.Errorf("%w: pool %q has %d on hand, %d already reserved, requested %d",
			ErrInsufficient, pool, p.OnHand, e.total(), qty)
	}
	e.reserved[holder] += qty
	return tx.Put(Table, pool, e)
}

// Release returns qty units of holder's reservation to the unreserved pool.
func (l *Ledger) Release(tx *txn.Tx, pool, holder string, qty int64) error {
	if qty <= 0 {
		return fmt.Errorf("escrow: release quantity must be positive, got %d", qty)
	}
	e, err := l.load(tx, pool)
	if err != nil {
		return err
	}
	if e.reserved[holder] < qty {
		return fmt.Errorf("%w: holder %q reserved %d of pool %q, tried to release %d",
			ErrNoReservation, holder, e.reserved[holder], pool, qty)
	}
	e.reserved[holder] -= qty
	if e.reserved[holder] == 0 {
		delete(e.reserved, holder)
	}
	return tx.Put(Table, pool, e)
}

// ReleaseAll returns holder's entire reservation in pool to the unreserved
// quantity and reports how much was freed (zero, without error, when the
// holder held nothing). The promise manager's release path uses it so that
// handing back a promise slot is one ledger operation instead of a
// read-then-release pair.
func (l *Ledger) ReleaseAll(tx *txn.Tx, pool, holder string) (int64, error) {
	e, err := l.load(tx, pool)
	if err != nil {
		return 0, err
	}
	q := e.reserved[holder]
	if q == 0 {
		return 0, nil
	}
	delete(e.reserved, holder)
	return q, tx.Put(Table, pool, e)
}

// Consume fulfils qty units of holder's reservation: the reservation
// shrinks and the pool's quantity on hand falls by the same amount — the
// action "which depends on, but violates, a previously promised condition,
// together with releasing the promise" (§4).
func (l *Ledger) Consume(tx *txn.Tx, pool, holder string, qty int64) error {
	if qty <= 0 {
		return fmt.Errorf("escrow: consume quantity must be positive, got %d", qty)
	}
	e, err := l.load(tx, pool)
	if err != nil {
		return err
	}
	if e.reserved[holder] < qty {
		return fmt.Errorf("%w: holder %q reserved %d of pool %q, tried to consume %d",
			ErrNoReservation, holder, e.reserved[holder], pool, qty)
	}
	if _, err := l.rm.AdjustPool(tx, pool, -qty); err != nil {
		return err
	}
	e.reserved[holder] -= qty
	if e.reserved[holder] == 0 {
		delete(e.reserved, holder)
	}
	return tx.Put(Table, pool, e)
}

// Reserved returns the quantity holder currently has reserved in pool.
func (l *Ledger) Reserved(r txn.Reader, pool, holder string) (int64, error) {
	e, err := l.load(r, pool)
	if err != nil {
		return 0, err
	}
	return e.reserved[holder], nil
}

// TotalReserved returns the sum of all reservations against pool.
func (l *Ledger) TotalReserved(r txn.Reader, pool string) (int64, error) {
	e, err := l.load(r, pool)
	if err != nil {
		return 0, err
	}
	return e.total(), nil
}

// Unreserved returns the pool quantity not covered by any reservation —
// what a new promise request can still draw on.
func (l *Ledger) Unreserved(r txn.Reader, pool string) (int64, error) {
	p, err := l.rm.Pool(r, pool)
	if err != nil {
		return 0, err
	}
	total, err := l.TotalReserved(r, pool)
	if err != nil {
		return 0, err
	}
	return p.OnHand - total, nil
}

// CheckInvariant verifies sum(reserved) <= on-hand for pool.
func (l *Ledger) CheckInvariant(r txn.Reader, pool string) error {
	e, err := l.load(r, pool)
	if err != nil {
		return err
	}
	return l.check(r, pool, e.total())
}

// check verifies reserved <= pool's quantity on hand.
func (l *Ledger) check(r txn.Reader, pool string, reserved int64) error {
	p, err := l.rm.Pool(r, pool)
	if err != nil {
		return err
	}
	if u := p.OnHand - reserved; u < 0 {
		return fmt.Errorf("%w: pool %q overdrawn by %d", ErrInsufficient, pool, -u)
	}
	return nil
}

// CheckPools verifies the escrow invariant for each of pools that has an
// escrow row, in the order given, and returns the first violation. Pools
// without a row are skipped, as CheckAllInvariants skips them, so when only
// these pools can have changed since the invariant last held, CheckPools
// over them sorted reaches CheckAllInvariants' verdict. The promise
// manager's post-action check (§8 "a check is performed after every
// client-requested operation has completed") runs it over the pools the
// action's transaction wrote.
func (l *Ledger) CheckPools(r txn.Reader, pools []string) error {
	for _, pool := range pools {
		row, err := r.Get(Table, pool)
		if errors.Is(err, txn.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if err := l.check(r, pool, row.(*entry).total()); err != nil {
			return err
		}
	}
	return nil
}

// Holdings is every escrow row as of one read, taken in a single Scan:
// what an audit needs to judge all pools without re-reading a row.
type Holdings struct {
	pools    []string                    // pools with an escrow row, in key order
	reserved map[string]map[string]int64 // pool -> holder -> quantity
}

// Holdings reads every escrow row once.
func (l *Ledger) Holdings(r txn.Reader) (*Holdings, error) {
	h := &Holdings{reserved: make(map[string]map[string]int64)}
	err := r.Scan(Table, func(key string, row txn.Row) bool {
		h.pools = append(h.pools, key)
		// Scan hands over a clone, so its map is ours to keep.
		h.reserved[key] = row.(*entry).reserved
		return true
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Reserved returns the quantity holder has reserved in pool.
func (h *Holdings) Reserved(pool, holder string) int64 { return h.reserved[pool][holder] }

// Total returns the sum of all reservations against pool.
func (h *Holdings) Total(pool string) int64 {
	var t int64
	for _, q := range h.reserved[pool] {
		t += q
	}
	return t
}

// CheckHoldings verifies the escrow invariant for every pool in h, in key
// order, reading each pool row once, and returns the first violation.
func (l *Ledger) CheckHoldings(r txn.Reader, h *Holdings) error {
	for _, pool := range h.pools {
		if err := l.check(r, pool, h.Total(pool)); err != nil {
			return err
		}
	}
	return nil
}

// CheckAllInvariants verifies the escrow invariant for every pool that has
// an escrow row.
func (l *Ledger) CheckAllInvariants(r txn.Reader) error {
	h, err := l.Holdings(r)
	if err != nil {
		return err
	}
	return l.CheckHoldings(r, h)
}
