package softlock

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/resource"
	"repro/internal/txn"
)

func newTags(t *testing.T) (*Tags, *resource.Manager, *txn.Store) {
	t.Helper()
	store := txn.NewStore()
	rm, err := resource.NewManager(store)
	if err != nil {
		t.Fatal(err)
	}
	tags, err := NewTags(store, rm)
	if err != nil {
		t.Fatal(err)
	}
	return tags, rm, store
}

func seedInstance(t *testing.T, rm *resource.Manager, store *txn.Store, id string) {
	t.Helper()
	tx := store.Begin(txn.Block)
	if err := rm.CreateInstance(tx, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireReleaseTake(t *testing.T) {
	tags, rm, store := newTags(t)
	seedInstance(t, rm, store, "room-212")
	tx := store.Begin(txn.Block)
	defer tx.Commit()

	if err := tags.Acquire(tx, "room-212", "alice"); err != nil {
		t.Fatal(err)
	}
	h, _ := tags.Holder(tx, "room-212")
	if h != "alice" {
		t.Fatalf("holder = %q", h)
	}
	in, _ := rm.Instance(tx, "room-212")
	if in.Status != resource.Promised {
		t.Fatalf("status = %v", in.Status)
	}
	if err := tags.CheckInvariant(tx); err != nil {
		t.Fatal(err)
	}

	if err := tags.Release(tx, "room-212", "alice"); err != nil {
		t.Fatal(err)
	}
	in, _ = rm.Instance(tx, "room-212")
	if in.Status != resource.Available {
		t.Fatalf("status after release = %v", in.Status)
	}
	h, _ = tags.Holder(tx, "room-212")
	if h != "" {
		t.Fatalf("holder after release = %q", h)
	}

	if err := tags.Acquire(tx, "room-212", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := tags.Take(tx, "room-212", "bob"); err != nil {
		t.Fatal(err)
	}
	in, _ = rm.Instance(tx, "room-212")
	if in.Status != resource.Taken {
		t.Fatalf("status after take = %v", in.Status)
	}
	if err := tags.CheckInvariant(tx); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleAcquireRejected(t *testing.T) {
	// §3.2: a named instance cannot be promised to two clients at once.
	tags, rm, store := newTags(t)
	seedInstance(t, rm, store, "car-vin123")
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	if err := tags.Acquire(tx, "car-vin123", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := tags.Acquire(tx, "car-vin123", "bob"); !errors.Is(err, ErrAlreadyAllocated) {
		t.Fatalf("double acquire: %v", err)
	}
	// Even re-acquiring by the same holder is rejected: promises are
	// identified, not idempotent at this layer.
	if err := tags.Acquire(tx, "car-vin123", "alice"); !errors.Is(err, ErrAlreadyAllocated) {
		t.Fatalf("self re-acquire: %v", err)
	}
}

func TestStrangerCannotReleaseOrTake(t *testing.T) {
	tags, rm, store := newTags(t)
	seedInstance(t, rm, store, "seat-24G")
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = tags.Acquire(tx, "seat-24G", "alice")
	if err := tags.Release(tx, "seat-24G", "mallory"); !errors.Is(err, ErrNotHolder) {
		t.Fatalf("stranger release: %v", err)
	}
	if err := tags.Take(tx, "seat-24G", "mallory"); !errors.Is(err, ErrNotHolder) {
		t.Fatalf("stranger take: %v", err)
	}
	// Unallocated instance cannot be released at all.
	seedInstance2 := func(id string) {
		if err := rm.CreateInstance(tx, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	seedInstance2("seat-25A")
	if err := tags.Release(tx, "seat-25A", "alice"); !errors.Is(err, ErrNotHolder) {
		t.Fatalf("release unallocated: %v", err)
	}
}

func TestForget(t *testing.T) {
	tags, rm, store := newTags(t)
	seedInstance(t, rm, store, "painting")
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = tags.Acquire(tx, "painting", "alice")
	// The application action consumes the painting directly (PM-unaware).
	if err := rm.SetStatus(tx, "painting", resource.Taken); err != nil {
		t.Fatal(err)
	}
	if err := tags.Forget(tx, "painting", "mallory"); !errors.Is(err, ErrNotHolder) {
		t.Fatalf("stranger forget: %v", err)
	}
	if err := tags.Forget(tx, "painting", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := tags.CheckInvariant(tx); err != nil {
		t.Fatal(err)
	}
	in, _ := rm.Instance(tx, "painting")
	if in.Status != resource.Taken {
		t.Fatalf("Forget changed status to %v", in.Status)
	}
}

func TestAcquireMissingInstance(t *testing.T) {
	tags, _, store := newTags(t)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	if err := tags.Acquire(tx, "ghost", "alice"); !errors.Is(err, txn.ErrNotFound) {
		t.Fatalf("missing instance: %v", err)
	}
}

func TestInvariantDetectsDrift(t *testing.T) {
	tags, rm, store := newTags(t)
	seedInstance(t, rm, store, "i1")
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	// Promised without holder record: simulate an ill-behaved app flipping
	// the tag directly.
	if err := rm.SetStatus(tx, "i1", resource.Promised); err != nil {
		t.Fatal(err)
	}
	if err := tags.CheckInvariant(tx); err == nil {
		t.Fatal("invariant should flag promised-without-holder")
	}
	// Fix it and break it the other way: holder record for available
	// instance.
	_ = rm.SetStatus(tx, "i1", resource.Available)
	if err := tx.Put(Table, "i1", &holderRow{holder: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := tags.CheckInvariant(tx); err == nil {
		t.Fatal("invariant should flag holder-without-promise")
	}
}

func TestInvariantUnknownInstance(t *testing.T) {
	tags, _, store := newTags(t)
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	if err := tx.Put(Table, "phantom", &holderRow{holder: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := tags.CheckInvariant(tx); err == nil {
		t.Fatal("invariant should flag record for unknown instance")
	}
}

func TestAbortRestoresTags(t *testing.T) {
	tags, rm, store := newTags(t)
	seedInstance(t, rm, store, "i")
	tx := store.Begin(txn.Block)
	_ = tags.Acquire(tx, "i", "a")
	_ = tx.Abort()
	check := store.Begin(txn.Block)
	defer check.Commit()
	in, _ := rm.Instance(check, "i")
	if in.Status != resource.Available {
		t.Fatalf("status after abort = %v", in.Status)
	}
	h, _ := tags.Holder(check, "i")
	if h != "" {
		t.Fatalf("holder after abort = %q", h)
	}
	if err := tags.CheckInvariant(check); err != nil {
		t.Fatal(err)
	}
}

func TestHolders(t *testing.T) {
	tags, rm, store := newTags(t)
	seedInstance(t, rm, store, "a")
	seedInstance(t, rm, store, "b")
	seedInstance(t, rm, store, "c")
	tx := store.Begin(txn.Block)
	defer tx.Commit()
	_ = tags.Acquire(tx, "a", "alice")
	_ = tags.Acquire(tx, "c", "carol")
	holders, err := tags.Holders(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) != 2 || holders["a"] != "alice" || holders["c"] != "carol" {
		t.Fatalf("holders = %v", holders)
	}
	if _, held := holders["b"]; held {
		t.Fatal("b should be unheld")
	}
}

func TestNewTagsDuplicateTable(t *testing.T) {
	store := txn.NewStore()
	rm, err := resource.NewManager(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTags(store, rm); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTags(store, rm); err == nil {
		t.Fatal("second NewTags on one store accepted")
	}
}

func TestConcurrentAcquireSingleWinner(t *testing.T) {
	tags, rm, store := newTags(t)
	seedInstance(t, rm, store, "unique")
	const clients = 16
	var wg sync.WaitGroup
	winners := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := "c" + string(rune('0'+c%10)) + string(rune('a'+c/10))
			tx := store.Begin(txn.Block)
			err := tags.Acquire(tx, "unique", name)
			if err != nil {
				_ = tx.Abort()
				if !errors.Is(err, ErrAlreadyAllocated) {
					t.Errorf("client %s: %v", name, err)
				}
				return
			}
			_ = tx.Commit()
			winners <- name
		}(c)
	}
	wg.Wait()
	close(winners)
	var got []string
	for w := range winners {
		got = append(got, w)
	}
	if len(got) != 1 {
		t.Fatalf("winners = %v, want exactly one", got)
	}
}
