package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestStoreStressMixedWorkload runs concurrent random transactions (reads,
// writes, scans, deletes, savepoint rollbacks, aborts) and then verifies
// the store still serves a consistent full scan.
func TestStoreStressMixedWorkload(t *testing.T) {
	s := newTestStore(t, "t")
	seedTx := s.Begin(Block)
	for i := 0; i < 10; i++ {
		if err := seedTx.Put("t", fmt.Sprintf("k%d", i), &intRow{n: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedTx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) * 17))
			for round := 0; round < 40; round++ {
				tx := s.Begin(Block)
				for op := 0; op < 4; op++ {
					key := fmt.Sprintf("k%d", r.Intn(10))
					var err error
					switch r.Intn(5) {
					case 0:
						_, err = tx.Get("t", key)
						if errors.Is(err, ErrNotFound) {
							err = nil
						}
					case 1:
						err = tx.Put("t", key, &intRow{n: int64(round)})
					case 2:
						err = tx.Scan("t", func(string, Row) bool { return true })
					case 3:
						sp := tx.Savepoint()
						err = tx.Put("t", key, &intRow{n: -1})
						if err == nil {
							err = tx.RollbackTo(sp)
						}
					case 4:
						err = tx.Delete("t", key)
						if errors.Is(err, ErrNotFound) {
							err = nil
						}
					}
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						_ = tx.Abort()
						return
					}
				}
				if r.Intn(4) == 0 {
					_ = tx.Abort()
				} else if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The store must still serve a clean scan with sane values.
	check := s.Begin(Block)
	defer check.Commit()
	err := check.Scan("t", func(key string, row Row) bool {
		if row.(*intRow).n == -1 {
			t.Errorf("savepoint-rolled-back value leaked at %s", key)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}
