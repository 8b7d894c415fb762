package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/txn"
)

// cancellingSupplier grants upstream promises and fires a callback on the
// first request — the deterministic hook the cancellation tests use to kill
// the context while a cross-shard pipeline is mid-reserve.
type cancellingSupplier struct {
	onRequest func()
	requests  atomic.Int64
	releases  atomic.Int64
	nextID    atomic.Int64
}

func (s *cancellingSupplier) RequestPromise(_ context.Context, pool string, qty int64, d time.Duration) (string, error) {
	if s.requests.Add(1) == 1 && s.onRequest != nil {
		s.onRequest()
	}
	return fmt.Sprintf("up-%d", s.nextID.Add(1)), nil
}
func (s *cancellingSupplier) ReleasePromise(context.Context, string) error {
	s.releases.Add(1)
	return nil
}
func (s *cancellingSupplier) ConsumePromise(context.Context, string, int64) error { return nil }

// twoShardPools returns two pool names owned by different shards of s.
func twoShardPools(t *testing.T, s *Manager) (a, b string) {
	t.Helper()
	a = "cancel-pool-0"
	for i := 1; ; i++ {
		b = fmt.Sprintf("cancel-pool-%d", i)
		if s.ShardOf(b) != s.ShardOf(a) {
			return a, b
		}
		if i > 1000 {
			t.Fatal("could not find pools on distinct shards")
		}
	}
}

// TestCancelledContextAbortsBeforeAnyWork: a context dead on arrival never
// reaches the store.
func TestCancelledContextAbortsBeforeAnyWork(t *testing.T) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePool("p", 10, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Execute(ctx, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 1)},
	}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute on dead context = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Grants != 0 {
		t.Fatalf("grants after cancelled request = %d", st.Grants)
	}
}

// TestCancelMidPipelineAbortsBeforeConfirm is the acceptance test for
// context plumbing through the reserve/confirm pipeline: the context dies
// while one shard is reserving (inside its supplier call), so the
// cross-shard grant must abort every open reservation before any Confirm —
// releases spring back, upstream promises are compensated, pool capacity is
// untouched and the audit stays healthy.
func TestCancelMidPipelineAbortsBeforeConfirm(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := &cancellingSupplier{onRequest: cancel}

	s, err := New(Config{
		Shards:    4,
		Suppliers: map[string]Supplier{"cancel-pool-0": sup},
	})
	if err != nil {
		t.Fatal(err)
	}
	poolA, poolB := twoShardPools(t, s)
	if err := s.CreatePool(poolA, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePool(poolB, 5, nil); err != nil {
		t.Fatal(err)
	}

	// The request spans both shards; poolA falls short by 3, so its shard's
	// reservation calls the supplier — which cancels the context mid-flight.
	_, err = s.Execute(ctx, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(poolA, 5), Quantity(poolB, 5)},
	}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-pipeline cancel: err = %v, want context.Canceled", err)
	}
	if sup.requests.Load() != 1 {
		t.Fatalf("supplier requests = %d, want 1", sup.requests.Load())
	}
	if sup.releases.Load() != 1 {
		t.Fatalf("upstream promise not compensated: releases = %d, want 1", sup.releases.Load())
	}

	// No state may have leaked: both pools still grant their full capacity.
	for _, probe := range []struct {
		pool string
		qty  int64
	}{{poolA, 2}, {poolB, 5}} {
		resp, err := s.Execute(context.Background(), Request{Client: "probe", PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Quantity(probe.pool, probe.qty)},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Promises[0].Accepted {
			t.Fatalf("capacity leaked on %s: %s", probe.pool, resp.Promises[0].Reason)
		}
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("audit unhealthy after cancelled pipeline: %s", rep)
	}
}

// TestCancelMidPipelineRestoresReleases: a §4 upgrade whose pipeline is
// cancelled mid-reserve must leave the released promise in force.
func TestCancelMidPipelineRestoresReleases(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := &cancellingSupplier{onRequest: cancel}

	s, err := New(Config{
		Shards:    4,
		Suppliers: map[string]Supplier{"cancel-pool-0": sup},
	})
	if err != nil {
		t.Fatal(err)
	}
	poolA, poolB := twoShardPools(t, s)
	if err := s.CreatePool(poolA, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePool(poolB, 5, nil); err != nil {
		t.Fatal(err)
	}

	// Hold poolB, then upgrade across shards releasing the hold; the
	// pipeline dies inside poolA's supplier call.
	resp, err := s.Execute(context.Background(), Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(poolB, 4)},
	}}})
	if err != nil || !resp.Promises[0].Accepted {
		t.Fatalf("seed grant: %v %+v", err, resp)
	}
	held := resp.Promises[0].PromiseID

	_, err = s.Execute(ctx, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(poolA, 5), Quantity(poolB, 5)},
		Releases:   []string{held},
	}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled upgrade: err = %v, want context.Canceled", err)
	}

	// The released promise sprang back untouched.
	if errs := checkB(t, s, "c", []string{held}); errs[0] != nil {
		t.Fatalf("release target consumed by cancelled upgrade: %v", errs[0])
	}
	// And its hold still counts: only 1 unit of poolB is free.
	resp, err = s.Execute(context.Background(), Request{Client: "probe", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(poolB, 2)},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Promises[0].Accepted {
		t.Fatal("cancelled upgrade leaked the released promise's hold")
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("audit unhealthy: %s", rep)
	}
}

// TestCancelGrantBatch: a cancelled context fails the batch wholesale with
// no partial grants surviving.
func TestCancelGrantBatch(t *testing.T) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePool("p", 10, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.GrantBatch(ctx, "c", []PromiseRequest{
		{Predicates: []Predicate{Quantity("p", 1)}},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("GrantBatch on dead context = %v", err)
	}
	if _, err := s.CheckBatch(ctx, "c", []string{"prm0-1"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckBatch on dead context = %v", err)
	}
	if st := s.Stats(); st.Grants != 0 {
		t.Fatalf("grants = %d after cancelled batch", st.Grants)
	}
}

// TestReleaseMethod covers the Engine Release convenience on both local
// engines: atomic multi-id hand-back and all-or-nothing failure.
func TestReleaseMethod(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (interface {
			Execute(context.Context, Request) (*Response, error)
			Release(ctx context.Context, client string, ids ...string) error
		}, error)
	}{
		{"manager", func() (interface {
			Execute(context.Context, Request) (*Response, error)
			Release(ctx context.Context, client string, ids ...string) error
		}, error) {
			m, err := New(Config{})
			if err != nil {
				return nil, err
			}
			tx := m.only().store.Begin(txn.Block)
			if err := m.only().rm.CreatePool(tx, "p", 10, nil); err != nil {
				return nil, err
			}
			return m, tx.Commit()
		}},
		{"sharded", func() (interface {
			Execute(context.Context, Request) (*Response, error)
			Release(ctx context.Context, client string, ids ...string) error
		}, error) {
			s, err := New(Config{Shards: 4})
			if err != nil {
				return nil, err
			}
			return s, s.CreatePool("p", 10, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for i := 0; i < 2; i++ {
				resp, err := e.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{Quantity("p", 3)},
				}}})
				if err != nil || !resp.Promises[0].Accepted {
					t.Fatalf("grant %d: %v %+v", i, err, resp)
				}
				ids = append(ids, resp.Promises[0].PromiseID)
			}
			// Releasing with one dead id is all-or-nothing.
			if err := e.Release(bg, "c", ids[0], "prm-ghost"); !errors.Is(err, ErrPromiseNotFound) {
				t.Fatalf("release with ghost id = %v, want not-found", err)
			}
			// Both still held: 10 - 6 leaves 4, so 5 must fail.
			resp, err := e.Execute(bg, Request{Client: "probe", PromiseRequests: []PromiseRequest{{
				Predicates: []Predicate{Quantity("p", 5)},
			}}})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Promises[0].Accepted {
				t.Fatal("failed Release dropped a hold")
			}
			if err := e.Release(bg, "c", ids...); err != nil {
				t.Fatalf("atomic release: %v", err)
			}
			resp, err = e.Execute(bg, Request{Client: "probe", PromiseRequests: []PromiseRequest{{
				Predicates: []Predicate{Quantity("p", 10)},
			}}})
			if err != nil || !resp.Promises[0].Accepted {
				t.Fatalf("capacity not restored: %v %+v", err, resp)
			}
			// Released ids answer with the precise sentinel.
			if err := e.Release(bg, "c", ids[0]); !errors.Is(err, ErrPromiseReleased) {
				t.Fatalf("double release = %v, want promise-released", err)
			}
		})
	}
}
