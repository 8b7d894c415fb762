package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/predicate"
)

// TestFreeHostShortcutOracle pins the free-host shortcut of cross-shard
// property grants (grantSession.freeHost) against the full reserve →
// match session. One seeded stream of cell, broad and named predicates,
// releases, upgrades and expiries runs on a default engine and on a
// disableFastPath twin (no shortcut, no matcher images, no pre-filter),
// in both property modes, with and without clock alarms (without them
// promises lapse only when a request sweeps their shard, so a shortcut
// that ignored a pending sweep would show):
//
//   - every grant, release and upgrade gets the same verdict;
//   - Audit is clean on both engines after every operation;
//   - in first-fit, every accepted grant holds the same instances;
//   - on a multi-shard engine the shortcut ran (PrefilterSkipped > 0).
func TestFreeHostShortcutOracle(t *testing.T) {
	shards := testShards(4)
	for _, mode := range []PropertyMode{MatchingMode, FirstFitMode} {
		for _, alarms := range []bool{true, false} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("mode=%v/alarms=%v/seed=%d", mode, alarms, seed)
				t.Run(name, func(t *testing.T) {
					runShortcutOracle(t, shards, mode, alarms, seed)
				})
			}
		}
	}
}

func runShortcutOracle(t *testing.T, shards int, mode PropertyMode, alarms bool, seed int64) {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	var clk clock.Clock = fake
	if !alarms {
		clk = noAlarmClock{f: fake}
	}
	mk := func(slow bool) *Manager {
		s, err := New(Config{Shards: shards, Clock: clk, PropertyMode: mode, DefaultDuration: time.Minute, disableFastPath: slow})
		if err != nil {
			t.Fatal(err)
		}
		s.disablePrefilter = slow
		return s
	}
	on, off := mk(false), mk(true)
	views := []string{"sea", "city"}
	var rooms []string
	for i := 0; i < 96; i++ {
		room := fmt.Sprintf("room-%02d", i)
		props := map[string]predicate.Value{
			"floor": predicate.Int(int64(1 + i/24)),
			"view":  predicate.Str(views[(i/12)%2]),
			"beds":  predicate.Int(int64(1 + i%3)),
		}
		for _, s := range []*Manager{on, off} {
			if err := s.CreateInstance(room, props); err != nil {
				t.Fatal(err)
			}
		}
		rooms = append(rooms, room)
	}

	rng := rand.New(rand.NewSource(seed))
	pred := func() Predicate {
		f, v := 1+rng.Intn(4), views[rng.Intn(2)]
		switch rng.Intn(7) {
		case 0, 1: // one (floor, view) cell, index-served
			return MustProperty(fmt.Sprintf("floor = %d and view = '%s'", f, v))
		case 2: // the same cell through a range, served by the view index
			return MustProperty(fmt.Sprintf("view = '%s' and floor >= %d and floor <= %d", v, f, f))
		case 3: // broad
			return MustProperty(fmt.Sprintf("view = '%s'", v))
		case 4: // broad and not index-served: a scan of every candidate
			return MustProperty(fmt.Sprintf("floor >= %d", f))
		default:
			return Named(rooms[rng.Intn(len(rooms))])
		}
	}
	type pair struct{ on, off string }
	var held []pair

	check := func(step int, what string) {
		t.Helper()
		for name, s := range map[string]*Manager{"default": on, "twin": off} {
			rep, err := s.Audit()
			if err != nil {
				t.Fatalf("step %d (%s): %s audit: %v", step, what, name, err)
			}
			if !rep.Healthy() {
				t.Fatalf("step %d (%s): %s audit: %s", step, what, name, rep)
			}
		}
	}
	grant := func(step int, preds []Predicate, rel *pair) {
		t.Helper()
		d := time.Duration(20+rng.Intn(100)) * time.Second
		req := func(id string) Request {
			pr := PromiseRequest{Predicates: preds, Duration: d}
			if id != "" {
				pr.Releases = []string{id}
			}
			return Request{Client: "c", PromiseRequests: []PromiseRequest{pr}}
		}
		var relOn, relOff string
		if rel != nil {
			relOn, relOff = rel.on, rel.off
		}
		rOn, eOn := on.Execute(bg, req(relOn))
		rOff, eOff := off.Execute(bg, req(relOff))
		if eOn != nil || eOff != nil {
			t.Fatalf("step %d: execute errors: default=%v twin=%v (preds %v)", step, eOn, eOff, preds)
		}
		pOn, pOff := rOn.Promises[0], rOff.Promises[0]
		if pOn.Accepted != pOff.Accepted {
			t.Fatalf("step %d: verdicts diverged on %v: default=%v (%s) twin=%v (%s)",
				step, preds, pOn.Accepted, pOn.Reason, pOff.Accepted, pOff.Reason)
		}
		if !pOn.Accepted {
			return
		}
		if mode == FirstFitMode {
			iOn, err := on.PromiseInfo(pOn.PromiseID)
			if err != nil {
				t.Fatal(err)
			}
			iOff, err := off.PromiseInfo(pOff.PromiseID)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(iOn.Assigned, iOff.Assigned) {
				t.Fatalf("step %d: first-fit chose %v on the default engine, %v on the twin (preds %v)",
					step, iOn.Assigned, iOff.Assigned, preds)
			}
		}
		held = append(held, pair{pOn.PromiseID, pOff.PromiseID})
	}

	for step := 0; step < 250; step++ {
		switch r := rng.Intn(20); {
		case r < 10:
			grant(step, []Predicate{pred()}, nil)
			check(step, "grant")
		case r < 12:
			grant(step, []Predicate{pred(), pred()}, nil)
			check(step, "two-predicate grant")
		case r < 14 && len(held) > 0:
			i := rng.Intn(len(held))
			p := held[i]
			held = append(held[:i], held[i+1:]...)
			grant(step, []Predicate{pred()}, &p)
			check(step, "upgrade")
		case r < 17 && len(held) > 0:
			i := rng.Intn(len(held))
			p := held[i]
			held = append(held[:i], held[i+1:]...)
			eOn, eOff := on.Release(bg, "c", p.on), off.Release(bg, "c", p.off)
			if (eOn == nil) != (eOff == nil) || errors.Is(eOn, ErrPromiseExpired) != errors.Is(eOff, ErrPromiseExpired) {
				t.Fatalf("step %d: release diverged: default=%v twin=%v", step, eOn, eOff)
			}
			check(step, "release")
		default:
			fake.Advance(time.Duration(5+rng.Intn(40)) * time.Second)
			check(step, "advance")
		}
	}
	if shards > 1 && on.Stats().PrefilterSkipped == 0 {
		t.Fatal("the free-host shortcut never ran")
	}
}

// TestFreeHostShortcutConcurrent runs property grants and releases from
// several goroutines on a multi-shard engine, so the shortcut reads the
// matcher images while other requests commit on other shards. No instance
// may be promised twice, and once the churn settles every room must be
// grantable again, exactly once.
func TestFreeHostShortcutConcurrent(t *testing.T) {
	s, _ := newShardedT(t, Config{Shards: testShards(8), DefaultDuration: time.Hour})
	const rooms = 24
	for i := 0; i < rooms; i++ {
		props := map[string]predicate.Value{"x": predicate.Int(1), "even": predicate.Bool(i%2 == 0)}
		if err := s.CreateInstance(fmt.Sprintf("cc-%02d", i), props); err != nil {
			t.Fatal(err)
		}
	}
	exprs := []string{"x = 1", "even", "not even", "x >= 1"}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", c)
			for i := 0; i < 40; i++ {
				resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{MustProperty(exprs[(c+i)%len(exprs)])},
				}}})
				if err != nil {
					t.Error(err)
					return
				}
				if p := resp.Promises[0]; p.Accepted && i%3 != 0 {
					if err := s.Release(bg, client, p.PromiseID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	mustHealthy(t, s)
	active, err := s.ActivePromises()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range active {
		if err := s.Release(bg, p.Client, p.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rooms; i++ {
		if pr := grantQty(t, s, "final", MustProperty("x = 1")); !pr.Accepted {
			t.Fatalf("room %d of %d not grantable after the churn: %s", i+1, rooms, pr.Reason)
		}
	}
	if pr := grantQty(t, s, "final", MustProperty("x = 1")); pr.Accepted {
		t.Fatalf("granted more property promises than rooms")
	}
	mustHealthy(t, s)
}
