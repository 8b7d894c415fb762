package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/txn"
)

// collect drains every event currently buffered on ch without blocking.
func collect(ch <-chan Event) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

// nextEvent receives one event or fails after a timeout (events are
// published synchronously before the triggering call returns, so the
// timeout only trips on a real bug).
func nextEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no event arrived")
	}
	return Event{}
}

func TestWatchLifecycleOrdering(t *testing.T) {
	// Per-promise ordering: every promise's events arrive in lifecycle
	// order (granted before released), and Seq is strictly increasing
	// across the whole stream.
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		return m.Resources().CreatePool(tx, "p", 100, nil)
	})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := m.Watch(ctx, WatchOptions{Buffer: 256})
	if err != nil {
		t.Fatal(err)
	}

	var ids []string
	for i := 0; i < 10; i++ {
		pr := grantOne(t, m, requestQuantity("c", "p", 1))
		ids = append(ids, pr.PromiseID)
	}
	for _, id := range ids {
		if _, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: id, Release: true}}}); err != nil {
			t.Fatal(err)
		}
	}

	events := collect(ch)
	if len(events) != 20 {
		t.Fatalf("got %d events, want 20", len(events))
	}
	var lastSeq uint64
	state := make(map[string]EventType)
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("Seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case EventGranted:
			if prev, seen := state[ev.PromiseID]; seen {
				t.Fatalf("%s granted after %s", ev.PromiseID, prev)
			}
		case EventReleased:
			if state[ev.PromiseID] != EventGranted {
				t.Fatalf("%s released before granted", ev.PromiseID)
			}
		default:
			t.Fatalf("unexpected event type %s", ev.Type)
		}
		state[ev.PromiseID] = ev.Type
		if ev.Client != "c" {
			t.Fatalf("event client = %q", ev.Client)
		}
	}
	for _, id := range ids {
		if state[id] != EventReleased {
			t.Fatalf("promise %s ended in %s", id, state[id])
		}
	}
}

func TestWatchRenewedOnModify(t *testing.T) {
	// A grant that atomically releases a prior promise — the §4 modify —
	// emits Released for the old id and Renewed (naming it) for the new.
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		return m.Resources().CreatePool(tx, "p", 10, nil)
	})
	old := grantOne(t, m, requestQuantity("c", "p", 5))

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := m.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 8)},
		Releases:   []string{old.PromiseID},
	}}})
	if !up.Accepted {
		t.Fatal(up.Reason)
	}

	rel := nextEvent(t, ch)
	if rel.Type != EventReleased || rel.PromiseID != old.PromiseID {
		t.Fatalf("first event = %s %s, want released %s", rel.Type, rel.PromiseID, old.PromiseID)
	}
	ren := nextEvent(t, ch)
	if ren.Type != EventRenewed || ren.PromiseID != up.PromiseID {
		t.Fatalf("second event = %s %s, want renewed %s", ren.Type, ren.PromiseID, up.PromiseID)
	}
	if !strings.Contains(ren.Reason, old.PromiseID) {
		t.Fatalf("renewal reason %q does not name the replaced promise", ren.Reason)
	}
}

func TestExpiryFiresAtDeadlineNotNextRequest(t *testing.T) {
	// The heap + clock alarm lapse the promise at its deadline: the
	// Expired event arrives, the expiration is counted, and capacity is
	// freed — all before any further request touches the engine.
	m, fake := newManager(t, Config{DefaultDuration: time.Minute, ExpiryWarning: 10 * time.Second})
	seed(t, m, func(tx *txn.Tx) error {
		return m.Resources().CreatePool(tx, "p", 10, nil)
	})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := m.Watch(ctx, WatchOptions{Types: []EventType{EventExpiryImminent, EventExpired}})
	if err != nil {
		t.Fatal(err)
	}
	pr := grantOne(t, m, requestQuantity("c", "p", 10))

	// Crossing into the warning window emits ExpiryImminent, not Expired.
	fake.Advance(55 * time.Second)
	warn := nextEvent(t, ch)
	if warn.Type != EventExpiryImminent || warn.PromiseID != pr.PromiseID {
		t.Fatalf("got %s %s, want expiry-imminent %s", warn.Type, warn.PromiseID, pr.PromiseID)
	}
	if got := m.Stats().Expirations; got != 0 {
		t.Fatalf("expirations before deadline = %d", got)
	}

	// Crossing the deadline lapses the promise with no request running.
	fake.Advance(10 * time.Second)
	exp := nextEvent(t, ch)
	if exp.Type != EventExpired || exp.PromiseID != pr.PromiseID {
		t.Fatalf("got %s %s, want expired %s", exp.Type, exp.PromiseID, pr.PromiseID)
	}
	if got := m.Stats().Expirations; got != 1 {
		t.Fatalf("expirations after deadline = %d, want 1 (before any request)", got)
	}
	// Capacity was freed at the deadline: the full pool grants again.
	if again := grantOne(t, m, requestQuantity("d", "p", 10)); !again.Accepted {
		t.Fatalf("capacity not freed at deadline: %s", again.Reason)
	}
}

func TestShardedExpiryFiresAtDeadline(t *testing.T) {
	s, fake := newShardedT(t, ShardedConfig{Config: Config{DefaultDuration: time.Minute}})
	pool := nameOnShard(t, s, 1, "evx-pool")
	mustPool(t, s, pool, 5)
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := s.Watch(ctx, WatchOptions{Types: []EventType{EventExpired}})
	if err != nil {
		t.Fatal(err)
	}
	pr := grantQty(t, s, "c", Quantity(pool, 5))
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	fake.Advance(2 * time.Minute)
	exp := nextEvent(t, ch)
	if exp.Type != EventExpired || exp.PromiseID != pr.PromiseID {
		t.Fatalf("got %s %s, want expired %s", exp.Type, exp.PromiseID, pr.PromiseID)
	}
	if again := grantQty(t, s, "d", Quantity(pool, 5)); !again.Accepted {
		t.Fatalf("capacity not freed at deadline: %s", again.Reason)
	}
	mustHealthy(t, s)
}

func TestWatchExactlyOnceAcrossMigration(t *testing.T) {
	// A property sub-promise displaced to another shard keeps one
	// continuous event stream under its id: exactly one grant, exactly one
	// migration, exactly one terminal event — nothing doubled or lost by
	// the move.
	s, fake := newShardedT(t, ShardedConfig{Shards: 4, Config: Config{DefaultDuration: time.Minute}})
	x := nameOnShard(t, s, 0, "evm-x")
	y := nameOnShard(t, s, 2, "evm-y")
	for _, id := range []string{x, y} {
		if err := s.CreateInstance(id, map[string]predicate.Value{"p": predicate.Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := s.Watch(ctx, WatchOptions{Client: "c", Buffer: 128})
	if err != nil {
		t.Fatal(err)
	}

	prop := grantQty(t, s, "c", MustProperty("p"))
	if !prop.Accepted {
		t.Fatal(prop.Reason)
	}
	// Claiming the backing instance by name displaces the slot; with only
	// one alternative, on another shard, the sub-promise must migrate.
	info, err := s.PromiseInfo(prop.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if claim := grantQty(t, s, "d", Named(info.Assigned[0])); !claim.Accepted {
		t.Fatalf("named claim rejected: %s", claim.Reason)
	}
	// Let the migrated promise lapse on its new shard.
	fake.Advance(2 * time.Minute)

	counts := make(map[EventType]int)
	var order []EventType
	for _, ev := range collect(ch) {
		if ev.PromiseID != prop.PromiseID {
			continue
		}
		counts[ev.Type]++
		order = append(order, ev.Type)
	}
	if counts[EventGranted] != 1 || counts[EventMigrated] != 1 || counts[EventExpired] != 1 {
		t.Fatalf("counts = %v, want exactly one granted, migrated, expired", counts)
	}
	if len(order) != 3 || order[0] != EventGranted || order[1] != EventMigrated || order[2] != EventExpired {
		t.Fatalf("order = %v, want [granted migrated expired]", order)
	}
	mustHealthy(t, s)
}

func TestWatchSlowSubscriberDrop(t *testing.T) {
	// Default policy: a full buffer drops events; the subscriber stays
	// connected and sees the loss as a Seq gap.
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		return m.Resources().CreatePool(tx, "p", 100, nil)
	})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := m.Watch(ctx, WatchOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		grantOne(t, m, requestQuantity("c", "p", 1))
	}
	first := nextEvent(t, ch) // the one buffered event; the middle two dropped
	grantOne(t, m, requestQuantity("c", "p", 1))
	next := nextEvent(t, ch)
	if next.Seq <= first.Seq+1 {
		t.Fatalf("expected a Seq gap after drops: %d then %d", first.Seq, next.Seq)
	}
	select {
	case _, ok := <-ch:
		if !ok {
			t.Fatal("drop policy must not close the channel")
		}
	default:
	}
}

func TestWatchSlowSubscriberDisconnect(t *testing.T) {
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		return m.Resources().CreatePool(tx, "p", 100, nil)
	})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := m.Watch(ctx, WatchOptions{Buffer: 1, SlowPolicy: SlowDisconnect})
	if err != nil {
		t.Fatal(err)
	}
	grantOne(t, m, requestQuantity("c", "p", 1))
	grantOne(t, m, requestQuantity("c", "p", 1)) // overflows: disconnect
	<-ch                                         // the buffered event
	if _, ok := <-ch; ok {
		t.Fatal("disconnect policy must close the channel")
	}
}

func TestWatchFiltersAndReplay(t *testing.T) {
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		return m.Resources().CreatePool(tx, "p", 100, nil)
	})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()

	byClient, err := m.Watch(ctx, WatchOptions{Client: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	a := grantOne(t, m, requestQuantity("alice", "p", 1))
	grantOne(t, m, requestQuantity("bob", "p", 1))

	byID, err := m.Watch(ctx, WatchOptions{PromiseIDs: []string{a.PromiseID}})
	if err != nil {
		t.Fatal(err)
	}
	byType, err := m.Watch(ctx, WatchOptions{Types: []EventType{EventReleased}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(bg, Request{Client: "alice", Env: []EnvEntry{{PromiseID: a.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}

	got := collect(byClient)
	if len(got) != 2 || got[0].Client != "alice" || got[1].Client != "alice" {
		t.Fatalf("client filter leaked: %+v", got)
	}
	got = collect(byID)
	if len(got) != 1 || got[0].Type != EventReleased || got[0].PromiseID != a.PromiseID {
		t.Fatalf("id filter: %+v", got)
	}
	got = collect(byType)
	if len(got) != 1 || got[0].Type != EventReleased {
		t.Fatalf("type filter: %+v", got)
	}

	// Replay: a late subscriber resumes from the retained ring.
	replay, err := m.Watch(ctx, WatchOptions{Replay: true, AfterSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	got = collect(replay)
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("replay after seq 1: %+v", got)
	}
}

func TestWatchViolatedEvent(t *testing.T) {
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		return m.Resources().CreateInstance(tx, "i", nil)
	})
	pr := grantOne(t, m, Request{Client: "holder", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("i")},
	}}})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := m.Watch(ctx, WatchOptions{Types: []EventType{EventViolated}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Execute(bg, Request{Client: "other", Action: func(ac *ActionContext) (any, error) {
		return nil, ac.Resources.SetStatus(ac.Tx, "i", resource.Taken)
	}})
	if err != nil || !errors.Is(resp.ActionErr, ErrPromiseViolated) {
		t.Fatalf("setup violation: %v %v", err, resp)
	}
	ev := nextEvent(t, ch)
	if ev.PromiseID != pr.PromiseID || ev.Client != "holder" {
		t.Fatalf("violated event = %+v, want promise %s owned by holder", ev, pr.PromiseID)
	}
	if ev.Reason == "" {
		t.Fatal("violated event carries no reason")
	}
}

func TestContextDeadlineCapsDuration(t *testing.T) {
	// The request context's deadline caps the granted duration, so the two
	// timeout vocabularies agree; a floor the cap cannot meet rejects with
	// a clear reason. Single-store and sharded engines must agree.
	run := func(t *testing.T, grant func(pr PromiseRequest, ctx context.Context) PromiseResponse) {
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		defer cancel()
		pr := grant(PromiseRequest{Predicates: []Predicate{Quantity("p", 1)}, Duration: time.Hour}, ctx)
		if !pr.Accepted {
			t.Fatalf("capped grant rejected: %s", pr.Reason)
		}

		short := grant(PromiseRequest{
			Predicates:  []Predicate{Quantity("p", 1)},
			Duration:    time.Hour,
			MinDuration: time.Minute,
		}, ctx)
		if short.Accepted {
			t.Fatal("grant below the client's floor accepted")
		}
		if !strings.Contains(short.Reason, "minimum") {
			t.Fatalf("floor rejection reason %q", short.Reason)
		}

		// The floor also guards the manager's own cap, without any ctx
		// deadline in play.
		overCap := grant(PromiseRequest{
			Predicates:  []Predicate{Quantity("p", 1)},
			Duration:    time.Hour,
			MinDuration: 30 * time.Minute,
		}, bg)
		if overCap.Accepted {
			t.Fatal("floor above MaxDuration accepted")
		}
	}
	t.Run("single", func(t *testing.T) {
		m, fake := newManager(t, Config{MaxDuration: 10 * time.Minute})
		seed(t, m, func(tx *txn.Tx) error {
			return m.Resources().CreatePool(tx, "p", 100, nil)
		})
		run(t, func(pr PromiseRequest, ctx context.Context) PromiseResponse {
			resp, err := m.Execute(ctx, Request{Client: "c", PromiseRequests: []PromiseRequest{pr}})
			if err != nil {
				t.Fatal(err)
			}
			out := resp.Promises[0]
			if out.Accepted {
				// The granted expiry must respect the ctx cap (5s of fake
				// time from now, since durations are relative).
				if max := fake.Now().Add(6 * time.Second); out.Expires.After(max) {
					t.Fatalf("expiry %v beyond ctx deadline cap %v", out.Expires, max)
				}
			}
			return out
		})
	})
	t.Run("sharded", func(t *testing.T) {
		s, _ := newShardedT(t, ShardedConfig{Config: Config{MaxDuration: 10 * time.Minute}})
		pool := nameOnShard(t, s, 1, "ctxcap")
		mustPool(t, s, pool, 100)
		run(t, func(pr PromiseRequest, ctx context.Context) PromiseResponse {
			for i := range pr.Predicates {
				if pr.Predicates[i].View == AnonymousView {
					pr.Predicates[i].Pool = pool
				}
			}
			resp, err := s.Execute(ctx, Request{Client: "c", PromiseRequests: []PromiseRequest{pr}})
			if err != nil {
				t.Fatal(err)
			}
			return resp.Promises[0]
		})
	})
	t.Run("sharded-property", func(t *testing.T) {
		// Property predicates take the cross-shard reserve pipeline and
		// are granted pinned by the global matcher: the floor must reject
		// before any shard reserves, and an accepted pinned grant must
		// respect the ctx-deadline cap exactly like a single-store grant.
		s, fake := newShardedT(t, ShardedConfig{Config: Config{MaxDuration: 10 * time.Minute}})
		if err := s.CreateInstance("ctxcap-inst", map[string]predicate.Value{"p": predicate.Bool(true)}); err != nil {
			t.Fatal(err)
		}
		resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
			Predicates:  []Predicate{MustProperty("p")},
			Duration:    time.Hour,
			MinDuration: 30 * time.Minute,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Promises[0].Accepted {
			t.Fatal("cross-shard floor above MaxDuration accepted")
		}
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		defer cancel()
		resp, err = s.Execute(ctx, Request{Client: "c", PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{MustProperty("p")},
			Duration:   time.Hour,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		pr := resp.Promises[0]
		if !pr.Accepted {
			t.Fatalf("capped pinned grant rejected: %s", pr.Reason)
		}
		if max := fake.Now().Add(6 * time.Second); pr.Expires.After(max) {
			t.Fatalf("pinned grant expires %v, beyond the ctx deadline cap %v", pr.Expires, max)
		}
		mustHealthy(t, s)
	})
}
