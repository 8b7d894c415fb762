package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// intRow is a simple Row for tests.
type intRow struct{ n int64 }

func (r *intRow) CloneRow() Row { c := *r; return &c }

func newTestStore(t *testing.T, tables ...string) *Store {
	t.Helper()
	s := NewStore()
	for _, tbl := range tables {
		if err := s.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCreateTableDuplicate(t *testing.T) {
	s := newTestStore(t, "a")
	if err := s.CreateTable("a"); err == nil {
		t.Fatal("duplicate CreateTable should fail")
	}
}

func TestPutGetCommit(t *testing.T) {
	s := newTestStore(t, "acct")
	tx := s.Begin(Block)
	if err := tx.Put("acct", "alice", &intRow{n: 100}); err != nil {
		t.Fatal(err)
	}
	row, err := tx.Get("acct", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if row.(*intRow).n != 100 {
		t.Fatalf("read own write = %d", row.(*intRow).n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := s.Begin(Block)
	defer tx2.Commit()
	row, err = tx2.Get("acct", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if row.(*intRow).n != 100 {
		t.Fatalf("committed value = %d", row.(*intRow).n)
	}
}

func TestGetMissing(t *testing.T) {
	s := newTestStore(t, "acct")
	tx := s.Begin(Block)
	defer tx.Commit()
	if _, err := tx.Get("acct", "nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestUnknownTable(t *testing.T) {
	s := newTestStore(t)
	tx := s.Begin(Block)
	defer tx.Commit()
	if _, err := tx.Get("ghost", "k"); err == nil {
		t.Fatal("want error for unknown table")
	}
	if err := tx.Put("ghost", "k", &intRow{}); err == nil {
		t.Fatal("want error for unknown table")
	}
	if err := tx.Delete("ghost", "k"); err == nil {
		t.Fatal("want error for unknown table")
	}
	if err := tx.Scan("ghost", func(string, Row) bool { return true }); err == nil {
		t.Fatal("want error for unknown table")
	}
}

func TestAbortRestoresPreImages(t *testing.T) {
	s := newTestStore(t, "acct")
	setup := s.Begin(Block)
	if err := setup.Put("acct", "alice", &intRow{n: 100}); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := s.Begin(Block)
	if err := tx.Put("acct", "alice", &intRow{n: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("acct", "alice", &intRow{n: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("acct", "bob", &intRow{n: 50}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("acct", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	check := s.Begin(Block)
	defer check.Commit()
	row, err := check.Get("acct", "alice")
	if err != nil {
		t.Fatalf("alice after abort: %v", err)
	}
	if row.(*intRow).n != 100 {
		t.Fatalf("alice = %d after abort, want 100", row.(*intRow).n)
	}
	if _, err := check.Get("acct", "bob"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bob should not exist after abort, got %v", err)
	}
}

func TestDeleteCommit(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	_ = tx.Put("t", "k", &intRow{n: 1})
	_ = tx.Commit()
	tx2 := s.Begin(Block)
	if err := tx2.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	_ = tx2.Commit()
	tx3 := s.Begin(Block)
	defer tx3.Commit()
	if _, err := tx3.Get("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key visible: %v", err)
	}
}

func TestCloneIsolation(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	row := &intRow{n: 1}
	_ = tx.Put("t", "k", row)
	row.n = 999 // mutate caller's copy after Put
	got, _ := tx.Get("t", "k")
	if got.(*intRow).n != 1 {
		t.Fatalf("store aliased caller row: %d", got.(*intRow).n)
	}
	got.(*intRow).n = 777 // mutate returned clone
	again, _ := tx.Get("t", "k")
	if again.(*intRow).n != 1 {
		t.Fatalf("store aliased returned row: %d", again.(*intRow).n)
	}
	_ = tx.Commit()
}

func TestTxDoneErrors(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	_ = tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("abort after commit: %v", err)
	}
	if _, err := tx.Get("t", "k"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("get after commit: %v", err)
	}
	if err := tx.Put("t", "k", &intRow{}); !errors.Is(err, ErrTxDone) {
		t.Fatalf("put after commit: %v", err)
	}
	if err := tx.Delete("t", "k"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("delete after commit: %v", err)
	}
	if err := tx.Scan("t", func(string, Row) bool { return true }); !errors.Is(err, ErrTxDone) {
		t.Fatalf("scan after commit: %v", err)
	}
	if !tx.Done() {
		t.Fatal("Done() = false")
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	s := newTestStore(t, "t")
	tx := s.Begin(Block)
	for _, k := range []string{"c", "a", "b"} {
		_ = tx.Put("t", k, &intRow{n: int64(k[0])})
	}
	_ = tx.Commit()

	tx2 := s.Begin(Block)
	defer tx2.Commit()
	var keys []string
	_ = tx2.Scan("t", func(k string, _ Row) bool {
		keys = append(keys, k)
		return true
	})
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("scan order = %v", keys)
	}
	var first []string
	_ = tx2.Scan("t", func(k string, _ Row) bool {
		first = append(first, k)
		return false
	})
	if len(first) != 1 || first[0] != "a" {
		t.Fatalf("early stop = %v", first)
	}
}

// beginAsync starts a Begin on another goroutine and returns a channel
// that yields the transaction once Begin returns.
func beginAsync(s *Store) <-chan *Tx {
	got := make(chan *Tx, 1)
	go func() { got <- s.Begin(Block) }()
	return got
}

// mustWait fails unless got stays empty for a while, then yields a value
// soon after release runs.
func mustWait(t *testing.T, got <-chan *Tx, release func()) *Tx {
	t.Helper()
	select {
	case <-got:
		t.Fatal("second Begin returned while the first transaction was open")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case tx := <-got:
		return tx
	case <-time.After(time.Second):
		t.Fatal("second Begin never returned after the first transaction ended")
		return nil
	}
}

func TestSecondBeginBlocksUntilCommit(t *testing.T) {
	s := newTestStore(t, "t")
	first := s.Begin(Block)
	if err := first.Put("t", "k", &intRow{n: 1}); err != nil {
		t.Fatal(err)
	}
	second := mustWait(t, beginAsync(s), func() { _ = first.Commit() })
	defer second.Commit()
	row, err := second.Get("t", "k")
	if err != nil || row.(*intRow).n != 1 {
		t.Fatalf("second transaction reads %v, %v; want the first's commit", row, err)
	}
}

func TestSecondBeginBlocksUntilAbort(t *testing.T) {
	s := newTestStore(t, "t")
	first := s.Begin(Block)
	if err := first.Put("t", "k", &intRow{n: 1}); err != nil {
		t.Fatal(err)
	}
	second := mustWait(t, beginAsync(s), func() { _ = first.Abort() })
	defer second.Commit()
	if _, err := second.Get("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted write visible to the next transaction: %v", err)
	}
}

func TestCreateTableWaitsForWriter(t *testing.T) {
	s := newTestStore(t)
	tx := s.Begin(Block)
	created := make(chan error, 1)
	go func() { created <- s.CreateTable("late") }()
	select {
	case err := <-created:
		t.Fatalf("CreateTable ran beside an open transaction: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	_ = tx.Commit()
	if err := <-created; err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotReadNeverBlocksOnWriter(t *testing.T) {
	s := newTestStore(t, "t")
	seed := s.Begin(Block)
	_ = seed.Put("t", "k", &intRow{n: 1})
	_ = seed.Commit()

	writer := s.Begin(Block)
	defer writer.Abort()
	if err := writer.Put("t", "k", &intRow{n: 2}); err != nil {
		t.Fatal(err)
	}
	read := make(chan int64, 1)
	go func() {
		snap := s.Snapshot()
		row, err := snap.Get("t", "k")
		if err != nil {
			t.Error(err)
			read <- -1
			return
		}
		n := 0
		_ = snap.Scan("t", func(string, Row) bool { n++; return true })
		if n != 1 {
			t.Errorf("snapshot scan saw %d rows, want 1", n)
		}
		read <- row.(*intRow).n
	}()
	select {
	case n := <-read:
		if n != 1 {
			t.Fatalf("snapshot read %d during an open writer, want committed 1", n)
		}
	case <-time.After(time.Second):
		t.Fatal("snapshot read blocked on the open writer")
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	s := newTestStore(t, "t")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tx := s.Begin(Block)
				key := fmt.Sprintf("k%d", i)
				if err := tx.Put("t", key, &intRow{n: int64(j)}); err != nil {
					errs[i] = err
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
}

func TestConcurrentCountersSerialize(t *testing.T) {
	// Read-modify-write on a single row from many goroutines: the single
	// writer serializes them, so no increment is lost.
	s := newTestStore(t, "t")
	seed := s.Begin(Block)
	_ = seed.Put("t", "ctr", &intRow{n: 0})
	_ = seed.Commit()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				tx := s.Begin(Block)
				row, err := tx.Get("t", "ctr")
				if err == nil {
					r := row.(*intRow)
					r.n++
					err = tx.Put("t", "ctr", r)
				}
				if err != nil {
					_ = tx.Abort()
					t.Errorf("increment: %v", err)
					return
				}
				_ = tx.Commit()
			}
		}()
	}
	wg.Wait()
	check := s.Begin(Block)
	defer check.Commit()
	row, err := check.Get("t", "ctr")
	if err != nil {
		t.Fatal(err)
	}
	if got := row.(*intRow).n; got != workers*perWorker {
		t.Fatalf("counter = %d, want %d (lost updates!)", got, workers*perWorker)
	}
}
