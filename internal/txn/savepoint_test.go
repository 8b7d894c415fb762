package txn

import (
	"errors"
	"testing"
)

func TestSavepointRollbackKeepsEarlierWrites(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	_ = tx.Put("t", "kept", &intRow{n: 1})
	mark := tx.Savepoint()
	_ = tx.Put("t", "dropped", &intRow{n: 2})
	_ = tx.Put("t", "kept", &intRow{n: 99})
	if err := tx.RollbackTo(mark); err != nil {
		t.Fatal(err)
	}
	row, err := tx.Get("t", "kept")
	if err != nil {
		t.Fatal(err)
	}
	if row.(*intRow).n != 1 {
		t.Fatalf("kept = %d, want 1 (pre-savepoint value)", row.(*intRow).n)
	}
	if _, err := tx.Get("t", "dropped"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped should not exist: %v", err)
	}
	_ = tx.Commit()
	check := s.Begin(Block)
	defer check.Commit()
	row, _ = check.Get("t", "kept")
	if row.(*intRow).n != 1 {
		t.Fatalf("committed kept = %d", row.(*intRow).n)
	}
}

func TestSavepointThenAbortStillRestoresAll(t *testing.T) {
	s := newTestStore(t, "t")
	seed := s.Begin(Block)
	_ = seed.Put("t", "k", &intRow{n: 10})
	_ = seed.Commit()

	tx := s.Begin(Block)
	_ = tx.Put("t", "k", &intRow{n: 20})
	mark := tx.Savepoint()
	_ = tx.Put("t", "k", &intRow{n: 30})
	_ = tx.RollbackTo(mark)
	// Write again after rollback: the undo machinery must re-record.
	_ = tx.Put("t", "k", &intRow{n: 40})
	_ = tx.Abort()

	check := s.Begin(Block)
	defer check.Commit()
	row, _ := check.Get("t", "k")
	if row.(*intRow).n != 10 {
		t.Fatalf("after abort = %d, want 10", row.(*intRow).n)
	}
}

func TestSavepointRewriteAfterRollback(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	mark := tx.Savepoint()
	_ = tx.Put("t", "k", &intRow{n: 1})
	_ = tx.RollbackTo(mark)
	_ = tx.Put("t", "k", &intRow{n: 2})
	_ = tx.RollbackTo(mark)
	if _, err := tx.Get("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("k should be gone after second rollback: %v", err)
	}
	_ = tx.Commit()
}

func TestSavepointRollbackKeepsWriter(t *testing.T) {
	s := newTestStore(t, "t")
	seed := s.Begin(Block)
	_ = seed.Put("t", "k", &intRow{n: 1})
	_ = seed.Commit()

	tx := s.Begin(Block)
	mark := tx.Savepoint()
	_ = tx.Put("t", "k", &intRow{n: 2})
	_ = tx.RollbackTo(mark)
	// Rolling back to a savepoint keeps the transaction open: the store's
	// writer stays held until Commit.
	other := mustWait(t, beginAsync(s), func() { _ = tx.Commit() })
	defer other.Commit()
	row, err := other.Get("t", "k")
	if err != nil || row.(*intRow).n != 1 {
		t.Fatalf("after rollback and commit: %v, %v; want 1", row, err)
	}
}

func TestSavepointStaleAndDoneTx(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	_ = tx.Put("t", "k", &intRow{n: 1})
	mark := tx.Savepoint()
	if err := tx.RollbackTo(mark + 100); err != nil {
		t.Fatalf("stale mark should no-op: %v", err)
	}
	if err := tx.RollbackTo(-1); err != nil {
		t.Fatalf("negative mark clamps: %v", err)
	}
	if _, err := tx.Get("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("negative mark should have undone everything: %v", err)
	}
	_ = tx.Commit()
	if err := tx.RollbackTo(mark); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit: %v", err)
	}
}

func TestSavepointDeleteRestored(t *testing.T) {
	s := newTestStore(t, "t")
	seed := s.Begin(Block)
	_ = seed.Put("t", "k", &intRow{n: 7})
	_ = seed.Commit()
	tx := s.Begin(Block)
	mark := tx.Savepoint()
	_ = tx.Delete("t", "k")
	_ = tx.RollbackTo(mark)
	row, err := tx.Get("t", "k")
	if err != nil {
		t.Fatalf("deleted key not restored: %v", err)
	}
	if row.(*intRow).n != 7 {
		t.Fatalf("restored = %d", row.(*intRow).n)
	}
	_ = tx.Commit()
}

func TestTouchedEmptyOnFreshTx(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	defer tx.Abort()
	if got := tx.Touched(); len(got) != 0 {
		t.Fatalf("fresh tx touched %v, want nothing", got)
	}
}

func TestTouchedDedupes(t *testing.T) {
	s := newTestStore(t, "t", "u")
	tx := s.Begin(Block)
	defer tx.Abort()
	_ = tx.Put("t", "a", &intRow{n: 1})
	_ = tx.Put("u", "a", &intRow{n: 2})
	_ = tx.Put("t", "a", &intRow{n: 3})
	_ = tx.Delete("t", "a")
	_ = tx.Put("t", "b", &intRow{n: 4})
	want := []TableKey{{"t", "a"}, {"u", "a"}, {"t", "b"}}
	got := tx.Touched()
	if len(got) != len(want) {
		t.Fatalf("touched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("touched %v, want %v", got, want)
		}
	}
}

func TestTouchedDropsRolledBackKeys(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	defer tx.Abort()
	_ = tx.Put("t", "kept", &intRow{n: 1})
	mark := tx.Savepoint()
	_ = tx.Put("t", "dropped", &intRow{n: 2})
	_ = tx.Put("t", "kept", &intRow{n: 3})
	if err := tx.RollbackTo(mark); err != nil {
		t.Fatal(err)
	}
	got := tx.Touched()
	if len(got) != 1 || got[0] != (TableKey{"t", "kept"}) {
		t.Fatalf("touched after rollback %v, want [{t kept}]", got)
	}
}
