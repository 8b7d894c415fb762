package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/predicate"
	"repro/internal/txn"
)

// preemptEngine is the slice of the engine surface these tests drive,
// satisfied by both *Manager and *ShardedManager.
type preemptEngine interface {
	GrantBatch(ctx context.Context, client string, reqs []PromiseRequest) ([]PromiseResponse, error)
	CheckBatch(ctx context.Context, client string, ids []string) ([]error, error)
	Release(ctx context.Context, client string, ids ...string) error
	Watch(ctx context.Context, opts WatchOptions) (<-chan Event, error)
	Audit() (*AuditReport, error)
	Close() error
}

// newPreemptManager builds a manager (sharded or single per shards) on a
// fake clock.
func newPreemptManager(t *testing.T, shards int) (preemptEngine, *clock.Fake) {
	t.Helper()
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	if shards > 1 {
		m, err := NewSharded(ShardedConfig{Shards: shards, Config: Config{Clock: fake, DefaultDuration: time.Hour}})
		if err != nil {
			t.Fatal(err)
		}
		return m, fake
	}
	m, err := New(Config{Clock: fake, DefaultDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return m, fake
}

func seedPool(t *testing.T, e preemptEngine, pool string, cap int64) {
	t.Helper()
	switch m := e.(type) {
	case *Manager:
		tx := m.Store().Begin(txn.Block)
		if err := m.Resources().CreatePool(tx, pool, cap, nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	case *ShardedManager:
		if err := m.CreatePool(pool, cap, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func pGrant(t *testing.T, e preemptEngine, client string, pr PromiseRequest) PromiseResponse {
	t.Helper()
	resps, err := e.GrantBatch(bg, client, []PromiseRequest{pr})
	if err != nil {
		t.Fatal(err)
	}
	return resps[0]
}

// The headline pin: a high-priority grant over a fully spot-held pool
// displaces the minimal victim set, oldest deadline first, and leaves the
// other holds untouched.
func TestPreemptionDisplacesMinimalVictimSet(t *testing.T) {
	for _, shards := range []int{1, testShards(8)} {
		e, _ := newPreemptManager(t, shards)
		defer e.Close()
		seedPool(t, e, "gpus", 4)

		// Four spot holds of one unit each, deadlines staggered so the
		// victim order is unambiguous: s1 expires first, s4 last.
		var spot [4]string
		for i := range spot {
			r := pGrant(t, e, "spot", PromiseRequest{
				Predicates:  []Predicate{Quantity("gpus", 1)},
				Duration:    time.Duration(i+1) * time.Minute,
				Preemptible: true,
			})
			if !r.Accepted {
				t.Fatalf("shards=%d: spot hold %d rejected: %s", shards, i, r.Reason)
			}
			spot[i] = r.PromiseID
		}

		// Tier 0 cannot displace anything even though every hold is spot.
		r := pGrant(t, e, "od", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 2)}, Duration: time.Minute,
		})
		if r.Accepted {
			t.Fatalf("shards=%d: tier-0 grant displaced spot capacity", shards)
		}

		// Tier 1 asking for 2 units displaces exactly the two
		// earliest-expiring holds.
		r = pGrant(t, e, "od", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 2)}, Duration: time.Minute, Priority: 1,
		})
		if !r.Accepted {
			t.Fatalf("shards=%d: tier-1 grant rejected over spot-held pool: %s", shards, r.Reason)
		}
		verdicts, err := e.CheckBatch(bg, "spot", spot[:])
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range verdicts {
			wantGone := i < 2
			if wantGone && !errors.Is(v, ErrPromisePreempted) {
				t.Errorf("shards=%d: spot[%d] verdict %v, want preempted", shards, i, v)
			}
			if !wantGone && v != nil {
				t.Errorf("shards=%d: spot[%d] verdict %v, want usable (not a victim)", shards, i, v)
			}
		}

		// The pool is exactly full again: one more unit is unavailable at
		// tier 0, and the two surviving holds plus the grant account for it.
		if r := pGrant(t, e, "od", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 1)}, Duration: time.Minute,
		}); r.Accepted {
			t.Fatalf("shards=%d: pool overcommitted after preemption", shards)
		}
	}
}

// Equal or lower tiers never displace: a tier-1 request must not preempt
// tier-1 spot holds, and nothing preempts non-preemptible holds.
func TestEqualOrLowerPriorityNeverPreempts(t *testing.T) {
	for _, shards := range []int{1, testShards(8)} {
		e, _ := newPreemptManager(t, shards)
		defer e.Close()
		seedPool(t, e, "gpus", 2)

		spot := pGrant(t, e, "spot", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 2)}, Duration: time.Hour,
			Priority: 1, Preemptible: true,
		})
		if !spot.Accepted {
			t.Fatalf("shards=%d: seed grant rejected: %s", shards, spot.Reason)
		}

		// Same tier: no displacement.
		if r := pGrant(t, e, "od", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 1)}, Duration: time.Minute, Priority: 1,
		}); r.Accepted {
			t.Fatalf("shards=%d: tier-1 request displaced a tier-1 hold", shards)
		}
		// Lower tier: no displacement.
		if r := pGrant(t, e, "od", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 1)}, Duration: time.Minute,
		}); r.Accepted {
			t.Fatalf("shards=%d: tier-0 request displaced a tier-1 hold", shards)
		}
		// Higher tier over a NON-preemptible hold: no displacement.
		if err := e.Release(bg, "spot", spot.PromiseID); err != nil {
			t.Fatal(err)
		}
		firm := pGrant(t, e, "firm", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 2)}, Duration: time.Hour,
		})
		if !firm.Accepted {
			t.Fatalf("shards=%d: firm grant rejected: %s", shards, firm.Reason)
		}
		if r := pGrant(t, e, "od", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 1)}, Duration: time.Minute, Priority: 5,
		}); r.Accepted {
			t.Fatalf("shards=%d: tier-5 request displaced a non-preemptible hold", shards)
		}
		if v, err := e.CheckBatch(bg, "firm", []string{firm.PromiseID}); err != nil || v[0] != nil {
			t.Fatalf("shards=%d: firm hold disturbed: %v %v", shards, err, v)
		}
	}
}

// Victims observe EventPreempted on a local Watch stream, annotated with
// the displacing promise id and its tier.
func TestPreemptedEventOnWatch(t *testing.T) {
	for _, shards := range []int{1, testShards(8)} {
		e, _ := newPreemptManager(t, shards)
		defer e.Close()
		seedPool(t, e, "gpus", 1)

		spot := pGrant(t, e, "spot", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 1)}, Duration: time.Hour, Preemptible: true,
		})
		if !spot.Accepted {
			t.Fatalf("shards=%d: spot grant rejected: %s", shards, spot.Reason)
		}
		events, err := e.Watch(bg, WatchOptions{Types: []EventType{EventPreempted}})
		if err != nil {
			t.Fatal(err)
		}
		od := pGrant(t, e, "od", PromiseRequest{
			Predicates: []Predicate{Quantity("gpus", 1)}, Duration: time.Minute, Priority: 2,
		})
		if !od.Accepted {
			t.Fatalf("shards=%d: displacing grant rejected: %s", shards, od.Reason)
		}
		select {
		case ev := <-events:
			if ev.Type != EventPreempted || ev.PromiseID != spot.PromiseID {
				t.Fatalf("shards=%d: event %+v, want preempted %s", shards, ev, spot.PromiseID)
			}
			if ev.By != od.PromiseID {
				t.Errorf("shards=%d: event By=%q, want displacing id %s", shards, ev.By, od.PromiseID)
			}
			if ev.Priority != 2 {
				t.Errorf("shards=%d: event Priority=%d, want 2", shards, ev.Priority)
			}
			if ev.Client != "spot" {
				t.Errorf("shards=%d: event Client=%q, want the victim's owner", shards, ev.Client)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("shards=%d: no preempted event", shards)
		}
	}
}

// An aborted cross-shard preempting reservation restores every victim: the
// revocations live inside the reservation transactions, so FedAbort brings
// the spot holds back untouched.
func TestFedAbortRestoresPreemptionVictims(t *testing.T) {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	m, err := NewSharded(ShardedConfig{Shards: testShards(8), Config: Config{Clock: fake, DefaultDuration: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Two pools, likely on different shards at 8; the reserve spans both.
	for _, p := range []string{"gpus-a", "gpus-b"} {
		if err := m.CreatePool(p, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	var spots []string
	for _, p := range []string{"gpus-a", "gpus-b"} {
		r := pGrant(t, m, "spot", PromiseRequest{
			Predicates: []Predicate{Quantity(p, 2)}, Duration: time.Hour, Preemptible: true,
		})
		if !r.Accepted {
			t.Fatalf("spot hold on %s rejected: %s", p, r.Reason)
		}
		spots = append(spots, r.PromiseID)
	}

	res, err := m.FedReserve(bg, "od", FedReserveSpec{
		Predicates: []Predicate{Quantity("gpus-a", 1), Quantity("gpus-b", 1)},
		PredIdx:    []int{0, 1},
		Duration:   time.Minute,
		Priority:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject != nil {
		t.Fatalf("preempting reserve rejected: %s", res.Reject.Reason)
	}
	// Mid-pipeline the victims are revoked; the abort must restore both.
	m.FedAbort(res.SessionID)
	verdicts, err := m.CheckBatch(bg, "spot", spots)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if v != nil {
			t.Errorf("victim %d not restored after abort: %v", i, v)
		}
	}
	// Full spot capacity still held: a tier-0 ask for one more unit fails.
	for _, p := range []string{"gpus-a", "gpus-b"} {
		if r := pGrant(t, m, "od", PromiseRequest{
			Predicates: []Predicate{Quantity(p, 1)}, Duration: time.Minute,
		}); r.Accepted {
			t.Fatalf("pool %s has free capacity after abort; victims not fully restored", p)
		}
	}
	if rep, err := m.Audit(); err != nil || !rep.Healthy() {
		t.Fatalf("audit after abort: %v %v", err, rep)
	}
}

// DefaultPriority stamps requests that name no tier, on both engines.
func TestDefaultPriorityApplies(t *testing.T) {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	m, err := New(Config{Clock: fake, DefaultDuration: time.Hour, DefaultPriority: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tx := m.Store().Begin(txn.Block)
	if err := m.Resources().CreatePool(tx, "gpus", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	spot := pGrant(t, m, "spot", PromiseRequest{
		Predicates: []Predicate{Quantity("gpus", 1)}, Duration: time.Hour, Preemptible: true,
		Priority: -1, // pin below the default so the next request's default tier wins
	})
	if !spot.Accepted {
		t.Fatalf("spot grant rejected: %s", spot.Reason)
	}
	// No explicit tier: the manager's DefaultPriority (1) applies and
	// displaces the lower-tier hold.
	od := pGrant(t, m, "od", PromiseRequest{
		Predicates: []Predicate{Quantity("gpus", 1)}, Duration: time.Minute,
	})
	if !od.Accepted {
		t.Fatalf("default-tier grant rejected: %s", od.Reason)
	}
	if v, err := m.CheckBatch(bg, "spot", []string{spot.PromiseID}); err != nil || !errors.Is(v[0], ErrPromisePreempted) {
		t.Fatalf("spot verdict %v %v, want preempted", v, err)
	}
}

// Property-view preemption: a selective request displaces the spot holder
// pinned to the only instance that can serve it, via the persistent matcher
// state, on both engine shapes.
func TestPropertyPreemptionDisplacesPinnedHolder(t *testing.T) {
	for _, shards := range []int{1, testShards(8)} {
		e, _ := newPreemptManager(t, shards)
		defer e.Close()
		props := func(color string, big bool) map[string]predicate.Value {
			return map[string]predicate.Value{"color": predicate.Str(color), "big": predicate.Bool(big)}
		}
		switch m := e.(type) {
		case *Manager:
			tx := m.Store().Begin(txn.Block)
			if err := m.Resources().CreateInstance(tx, "i-red-big", props("red", true)); err != nil {
				t.Fatal(err)
			}
			if err := m.Resources().CreateInstance(tx, "i-red", props("red", false)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		case *ShardedManager:
			if err := m.CreateInstance("i-red-big", props("red", true)); err != nil {
				t.Fatal(err)
			}
			if err := m.CreateInstance("i-red", props("red", false)); err != nil {
				t.Fatal(err)
			}
		}
		// Two spot holds pin both red instances (the matcher may place them
		// either way round).
		var spots []string
		for i := 0; i < 2; i++ {
			r := pGrant(t, e, "spot", PromiseRequest{
				Predicates:  []Predicate{MustProperty(`color = "red"`)},
				Duration:    time.Duration(i+1) * time.Minute,
				Preemptible: true,
			})
			if !r.Accepted {
				t.Fatalf("shards=%d: spot property hold %d rejected: %s", shards, i, r.Reason)
			}
			spots = append(spots, r.PromiseID)
		}
		// The selective request can only be served by i-red-big; no
		// rearrangement helps (both instances are pinned), so the holder of
		// i-red-big must be displaced — and only that holder.
		r := pGrant(t, e, "od", PromiseRequest{
			Predicates: []Predicate{MustProperty(`big`)}, Duration: time.Minute, Priority: 1,
		})
		if !r.Accepted {
			t.Fatalf("shards=%d: selective tier-1 grant rejected: %s", shards, r.Reason)
		}
		verdicts, err := e.CheckBatch(bg, "spot", spots)
		if err != nil {
			t.Fatal(err)
		}
		gone := 0
		for _, v := range verdicts {
			if errors.Is(v, ErrPromisePreempted) {
				gone++
			} else if v != nil {
				t.Errorf("shards=%d: unexpected victim verdict %v", shards, v)
			}
		}
		if gone != 1 {
			t.Fatalf("shards=%d: %d spot holds preempted, want exactly 1", shards, gone)
		}
	}
}
