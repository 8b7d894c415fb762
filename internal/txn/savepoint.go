package txn

// Savepoint marks the current position in the transaction's undo log.
// RollbackTo(mark) undoes every write made after the mark while keeping the
// transaction (and the store's writer) alive.
//
// The promise manager uses savepoints to implement §8 faithfully: when an
// application action violates promises, "the promise manager will roll back
// the changes made by the Action and return a failure message" — the
// action's writes are undone, but promise grants made earlier while
// processing the same message survive.
type Savepoint int

// Savepoint returns a mark for the current undo position.
func (t *Tx) Savepoint() Savepoint { return Savepoint(len(t.undo)) }

// RollbackTo undoes all writes made after mark, in reverse order. The
// transaction stays open and keeps the writer. Rolling back to a stale mark
// (beyond the current log) is a no-op.
func (t *Tx) RollbackTo(mark Savepoint) error {
	if t.done {
		return ErrTxDone
	}
	m := int(mark)
	if m < 0 {
		m = 0
	}
	if m >= len(t.undo) {
		return nil
	}
	t.undoTo(m)
	return nil
}
