package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/txn"
)

// TablePromises is the store table holding the promise table of §8: "The
// promise manager keeps a record of all non-expired promises and their
// predicates in a 'promise table'." Only active promises live here — the
// structures scanned on every request (expiry sweep, promise checking) must
// stay proportional to the number of live promises, not to history.
const TablePromises = "promises"

// TablePromisesDone holds released and expired promises, accessed only by
// key (so clients still receive the precise promise-released /
// promise-expired errors of §2 when they reuse an old id). It is never
// scanned on the request path.
const TablePromisesDone = "promises_done"

// State is the lifecycle state of a promise.
type State int

// Promise states.
const (
	// Active promises constrain resource availability.
	Active State = iota
	// Released promises were handed back by the client.
	Released
	// Expired promises passed their duration (§2: "Promises do not last
	// forever").
	Expired
	// Preempted promises were revoked before their deadline by a
	// higher-priority grant (spot capacity reclaimed).
	Preempted
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Released:
		return "released"
	case Expired:
		return "expired"
	case Preempted:
		return "preempted"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Promise is one granted promise: a set of predicates the manager
// guarantees until expiry (§2).
type Promise struct {
	// ID is the promise identifier assigned by the promise maker (§6).
	ID string
	// Client identifies the promise client; only it may use or release the
	// promise.
	Client string
	// Predicates are the guaranteed conditions; a multi-predicate promise
	// was granted atomically (§4, first requirement).
	Predicates []Predicate
	// Assigned records, per predicate, the concrete instance currently
	// backing it: the instance itself for named view, the tentative
	// allocation for property view (§5 "Tentative allocation"), "" for
	// anonymous view.
	Assigned []string
	// DelegatedQty and DelegatedID record, per predicate, any quantity
	// backed by an upstream supplier promise (§5 "Delegation") and that
	// upstream promise's id.
	DelegatedQty []int64
	DelegatedID  []string
	// Expires is the instant the promise lapses.
	Expires time.Time
	// State is the lifecycle state.
	State State
	// Priority is the tier the promise was granted at.
	Priority int
	// Preemptible marks the promise as displaceable by strictly
	// higher-priority requests.
	Preemptible bool
}

// assignedAt returns the instance backing predicate i, or "" when the row
// records none — an anonymous predicate, or an Assigned slice shorter than
// Predicates (a damaged row), which checks then report as "no assigned
// instance" instead of panicking.
func (p *Promise) assignedAt(i int) string {
	if i < len(p.Assigned) {
		return p.Assigned[i]
	}
	return ""
}

// slotKey identifies one predicate of one promise; escrow reservations and
// soft-lock holders are keyed by slot so two predicates of one promise
// never share backing resources.
func slotKey(promiseID string, i int) string {
	return fmt.Sprintf("%s#%d", promiseID, i)
}

// parseSlotKey splits a slot key back into promise id and predicate index.
func parseSlotKey(slot string) (promiseID string, idx int, ok bool) {
	sep := strings.LastIndexByte(slot, '#')
	if sep <= 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(slot[sep+1:])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return slot[:sep], n, true
}

// promiseRow wraps Promise as a txn.Row.
type promiseRow struct {
	p Promise
}

// CloneRow implements txn.Row. Predicate Exprs are immutable after parse
// and safe to share.
func (r *promiseRow) CloneRow() txn.Row {
	c := r.p
	c.Predicates = append([]Predicate(nil), r.p.Predicates...)
	c.Assigned = append([]string(nil), r.p.Assigned...)
	c.DelegatedQty = append([]int64(nil), r.p.DelegatedQty...)
	c.DelegatedID = append([]string(nil), r.p.DelegatedID...)
	return &promiseRow{p: c}
}
