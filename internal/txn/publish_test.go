package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestPublishAllocsIndependentOfTableSize pins snapshot publication at
// O(touched): a commit that writes one row allocates the same amount
// whether the table holds a thousand rows or a hundred thousand.
func TestPublishAllocsIndependentOfTableSize(t *testing.T) {
	putAllocs := func(rows int) float64 {
		s := NewStore()
		if err := s.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		tx := s.Begin(Block)
		for i := 0; i < rows; i++ {
			if err := tx.Put("t", fmt.Sprintf("row-%07d", i), &testRow{v: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		row := &testRow{v: -1}
		i := 0
		return testing.AllocsPerRun(200, func() {
			tx := s.Begin(Block)
			if err := tx.Put("t", fmt.Sprintf("new-%07d", i), row); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	small, large := putAllocs(1000), putAllocs(100000)
	if d := large - small; d > 1 || d < -1 {
		t.Fatalf("a one-row commit allocates %.0f into 1k rows and %.0f into 100k rows: want equal within 1", small, large)
	}
}

// TestSnapshotModel drives random Put/Delete/Abort/RollbackTo
// transactions over several tables and checks every published snapshot
// against a reference map: Get, Scan order and Len after each commit.
// Snapshots held from earlier commits are re-checked against the model
// state they were published with, so a copy-on-write slip that mutates
// shared state shows up as an old snapshot changing.
func TestSnapshotModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSnapshotModel(t, seed)
		})
	}
}

type modelState map[string]map[string]int

func (m modelState) clone() modelState {
	out := make(modelState, len(m))
	for tbl, rows := range m {
		c := make(map[string]int, len(rows))
		for k, v := range rows {
			c[k] = v
		}
		out[tbl] = c
	}
	return out
}

func runSnapshotModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tables := []string{"a", "b", "c"}
	s := NewStore()
	model := modelState{}
	for _, tbl := range tables {
		if err := s.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
		model[tbl] = map[string]int{}
	}
	type held struct {
		snap  *Snapshot
		state modelState
	}
	var history []held
	// A small key space per table keeps overwrites and deletes frequent;
	// a few wide commits spread rows over many leaves.
	key := func() string { return fmt.Sprintf("k%04d", rng.Intn(600)) }
	for step := 0; step < 400; step++ {
		tx := s.Begin(Block)
		work := model.clone()
		var mark Savepoint
		markState := modelState(nil)
		writes := 1 + rng.Intn(6)
		if rng.Intn(10) == 0 {
			writes = 200
		}
		for w := 0; w < writes; w++ {
			if markState == nil && rng.Intn(8) == 0 {
				mark, markState = tx.Savepoint(), work.clone()
			}
			tbl := tables[rng.Intn(len(tables))]
			k := key()
			if _, ok := work[tbl][k]; ok && rng.Intn(3) == 0 {
				if err := tx.Delete(tbl, k); err != nil {
					t.Fatal(err)
				}
				delete(work[tbl], k)
				continue
			}
			v := rng.Int()
			if err := tx.Put(tbl, k, &testRow{v: v}); err != nil {
				t.Fatal(err)
			}
			work[tbl][k] = v
		}
		if markState != nil && rng.Intn(2) == 0 {
			if err := tx.RollbackTo(mark); err != nil {
				t.Fatal(err)
			}
			work = markState
		}
		if rng.Intn(6) == 0 {
			before := s.Snapshot()
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			if s.Snapshot() != before {
				t.Fatalf("step %d: abort published a snapshot", step)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model = work
		checkSnapshotModel(t, step, s.Snapshot(), model, rng)
		if rng.Intn(20) == 0 {
			history = append(history, held{snap: s.Snapshot(), state: model.clone()})
		}
	}
	for i, h := range history {
		checkSnapshotModel(t, -1-i, h.snap, h.state, rng)
	}
}

func checkSnapshotModel(t *testing.T, step int, snap *Snapshot, model modelState, rng *rand.Rand) {
	t.Helper()
	for tbl, rows := range model {
		if got := snap.Len(tbl); got != len(rows) {
			t.Fatalf("step %d: %s Len = %d, want %d", step, tbl, got, len(rows))
		}
		want := make([]string, 0, len(rows))
		for k := range rows {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		err := snap.Scan(tbl, func(k string, row Row) bool {
			if v := row.(*testRow).v; v != rows[k] {
				t.Fatalf("step %d: %s/%s scanned %d, want %d", step, tbl, k, v, rows[k])
			}
			got = append(got, k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: %s Scan keys = %v, want %v", step, tbl, got, want)
		}
		for probe := 0; probe < 20; probe++ {
			k := fmt.Sprintf("k%04d", rng.Intn(600))
			row, err := snap.Get(tbl, k)
			v, ok := rows[k]
			switch {
			case ok && err != nil:
				t.Fatalf("step %d: %s/%s Get: %v, want %d", step, tbl, k, err, v)
			case ok && row.(*testRow).v != v:
				t.Fatalf("step %d: %s/%s Get = %d, want %d", step, tbl, k, row.(*testRow).v, v)
			case !ok && !errors.Is(err, ErrNotFound):
				t.Fatalf("step %d: %s/%s Get = %v/%v, want not found", step, tbl, k, row, err)
			}
		}
	}
}
