package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/predicate"
	"repro/internal/txn"
)

// This file pins the lock-free versioned-snapshot read path: reads must
// complete while every shard write lock is held, a retained snapshot must
// keep showing the pre-migration world while fresh reads show the
// post-migration one, and the replay ring configuration must bound
// AfterSeq resume exactly.

// TestReadPathsCompleteUnderHeldWriteLocks is the executable form of the
// zero-lock claim: with every shard's write mutex held (as a slow
// cross-shard grant would hold them), every read path — CheckBatch,
// PromiseInfo, ActivePromises, Stats, Audit, PoolLevel, listings — still
// completes, because none of them acquires a shard lock.
func TestReadPathsCompleteUnderHeldWriteLocks(t *testing.T) {
	s, _ := newShardedT(t, Config{Shards: 4, DefaultDuration: time.Hour})
	mustPool(t, s, "lp", 100)
	pr := grantQty(t, s, "c", Quantity("lp", 5))
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}

	// Hold every shard's write lock, exactly like a long-running grant.
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()

	done := make(chan error, 1)
	go func() {
		done <- func() error {
			errs, err := s.CheckBatch(bg, "c", []string{pr.PromiseID, "prm0-nope"})
			if err != nil {
				return err
			}
			if errs[0] != nil {
				return fmt.Errorf("granted promise not usable: %v", errs[0])
			}
			if !errors.Is(errs[1], ErrPromiseNotFound) {
				return fmt.Errorf("unknown id sentinel = %v", errs[1])
			}
			if _, err := s.PromiseInfo(pr.PromiseID); err != nil {
				return fmt.Errorf("PromiseInfo: %v", err)
			}
			if _, err := s.ActivePromises(); err != nil {
				return fmt.Errorf("ActivePromises: %v", err)
			}
			if st := s.Stats(); st.Grants == 0 {
				return fmt.Errorf("stats lost the grant: %+v", st)
			}
			rep, err := s.Audit()
			if err != nil {
				return fmt.Errorf("Audit: %v", err)
			}
			if !rep.Healthy() {
				return fmt.Errorf("audit: %s", rep)
			}
			if lvl, err := s.PoolLevel("lp"); err != nil || lvl != 100 {
				return fmt.Errorf("PoolLevel = %d, %v", lvl, err)
			}
			if _, err := s.Pools(); err != nil {
				return fmt.Errorf("Pools: %v", err)
			}
			if _, err := s.Instances(); err != nil {
				return fmt.Errorf("Instances: %v", err)
			}
			return nil
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read paths blocked behind held shard write locks")
	}
}

// TestSnapshotShowsPreOrPostMigrationNeverTorn pins the snapshot
// consistency model across a cross-shard slot migration: a snapshot
// captured before the migration keeps showing the pre-migration placement
// forever, the post-migration read shows the new placement, and at no
// point does any reader observe a torn in-between.
func TestSnapshotShowsPreOrPostMigrationNeverTorn(t *testing.T) {
	s, _ := newShardedT(t, Config{Shards: 4, DefaultDuration: time.Hour})
	x := nameOnShard(t, s, 0, "snap-x")
	y := nameOnShard(t, s, 2, "snap-y")
	for _, id := range []string{x, y} {
		if err := s.CreateInstance(id, map[string]predicate.Value{"p": predicate.Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}
	prop := grantQty(t, s, "c", MustProperty("p"))
	if !prop.Accepted {
		t.Fatal(prop.Reason)
	}
	pre, err := s.PromiseInfo(prop.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	preShard, ok := s.ownerShard(prop.PromiseID)
	if !ok {
		t.Fatal("no owner shard")
	}
	preSnap := s.shards[preShard].store.Snapshot()

	// Claiming the backing instance by name displaces the slot; the only
	// alternative lives on another shard, so the sub-promise migrates.
	if claim := grantQty(t, s, "d", Named(pre.Assigned[0])); !claim.Accepted {
		t.Fatalf("named claim rejected: %s", claim.Reason)
	}
	post, err := s.PromiseInfo(prop.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	postShard, _ := s.ownerShard(prop.PromiseID)
	if postShard == preShard {
		t.Fatalf("expected a migration, promise stayed on shard %d", preShard)
	}
	if post.Assigned[0] == pre.Assigned[0] {
		t.Fatal("expected the slot to move instances")
	}

	// The retained pre-migration snapshot is immutable: it still shows the
	// promise on its old shard, backed by its old instance, even though
	// the live world has moved on.
	p, err := s.shards[preShard].promise(preSnap, prop.PromiseID)
	if err != nil {
		t.Fatalf("pre-migration snapshot lost the promise: %v", err)
	}
	if p.Assigned[0] != pre.Assigned[0] {
		t.Fatalf("pre snapshot assigned = %q, want %q", p.Assigned[0], pre.Assigned[0])
	}
	// And the vacated shard's fresh snapshot no longer has it.
	if _, err := s.shards[preShard].promise(s.shards[preShard].store.Snapshot(), prop.PromiseID); !errors.Is(err, ErrPromiseNotFound) {
		t.Fatalf("vacated shard still answers: %v", err)
	}
	mustHealthy(t, s)
}

// TestConcurrentReadersDuringMigrationChurn races lock-free readers
// against repeated forced migrations: every read must resolve to a
// consistent answer (usable promise with intact shape, or a precise
// lifecycle sentinel), never an internal error or a torn promise.
func TestConcurrentReadersDuringMigrationChurn(t *testing.T) {
	s, _ := newShardedT(t, Config{Shards: 4, DefaultDuration: time.Hour})
	x := nameOnShard(t, s, 1, "churn-x")
	y := nameOnShard(t, s, 3, "churn-y")
	for _, id := range []string{x, y} {
		if err := s.CreateInstance(id, map[string]predicate.Value{"p": predicate.Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}

	const cycles = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	idCh := make(chan string, cycles)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var known []string
			for {
				select {
				case <-stop:
					return
				case id := <-idCh:
					known = append(known, id)
				default:
				}
				if len(known) == 0 {
					continue
				}
				id := known[rand.Intn(len(known))]
				p, err := s.PromiseInfo(id)
				if err != nil {
					if errors.Is(err, ErrPromiseNotFound) {
						t.Errorf("promise %s vanished", id)
						return
					}
					continue // released between cycles: fine
				}
				if p.ID != id || len(p.Predicates) != 1 {
					t.Errorf("torn promise read: %+v", p)
					return
				}
				errs, err := s.CheckBatch(bg, "c", []string{id})
				if err != nil {
					t.Errorf("CheckBatch: %v", err)
					return
				}
				if errs[0] != nil && !errors.Is(errs[0], ErrPromiseReleased) {
					t.Errorf("check sentinel = %v", errs[0])
					return
				}
			}
		}()
	}

	for i := 0; i < cycles; i++ {
		prop := grantQty(t, s, "c", MustProperty("p"))
		if !prop.Accepted {
			t.Fatal(prop.Reason)
		}
		idCh <- prop.PromiseID
		info, err := s.PromiseInfo(prop.PromiseID)
		if err != nil {
			t.Fatal(err)
		}
		claim := grantQty(t, s, "d", Named(info.Assigned[0]))
		if !claim.Accepted {
			t.Fatalf("cycle %d: named claim rejected: %s", i, claim.Reason)
		}
		// Hand both back so the next cycle starts clean.
		if err := s.Release(bg, "d", claim.PromiseID); err != nil {
			t.Fatal(err)
		}
		if err := s.Release(bg, "c", prop.PromiseID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	mustHealthy(t, s)
}

// TestReplayRingConfigurable pins AfterSeq resume behaviour at a small
// ring: only the last n events are replayable, older ones show as a gap.
func TestReplayRingConfigurable(t *testing.T) {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	m, err := New(Config{Clock: fake, DefaultDuration: time.Hour, ReplayRing: 4})
	if err != nil {
		t.Fatal(err)
	}
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "rp", 100, nil)
	})
	for i := 0; i < 8; i++ {
		grantOne(t, m, requestQuantity("c", "rp", 1))
	}
	// 8 granted events published; ring capacity 4 retains Seq 5..8.
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := m.Watch(ctx, WatchOptions{Replay: true, AfterSeq: 0, Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for {
		select {
		case ev := <-ch:
			seqs = append(seqs, ev.Seq)
			continue
		case <-time.After(50 * time.Millisecond):
		}
		break
	}
	if len(seqs) != 4 {
		t.Fatalf("replayed %d events (%v), want the ring's 4", len(seqs), seqs)
	}
	for i, want := range []uint64{5, 6, 7, 8} {
		if seqs[i] != want {
			t.Fatalf("replay seqs = %v, want [5 6 7 8]", seqs)
		}
	}
	// A cursor inside the ring resumes precisely.
	ch2, err := m.Watch(ctx, WatchOptions{Replay: true, AfterSeq: 6, Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	var seqs2 []uint64
	for {
		select {
		case ev := <-ch2:
			seqs2 = append(seqs2, ev.Seq)
			continue
		case <-time.After(50 * time.Millisecond):
		}
		break
	}
	if len(seqs2) != 2 || seqs2[0] != 7 || seqs2[1] != 8 {
		t.Fatalf("resume from 6 replayed %v, want [7 8]", seqs2)
	}
}

// TestSnapshotEpochTracksBusSeq pins the epoch agreement: a snapshot's
// epoch equals the event-bus sequence at its commit, so "events with
// Seq <= Epoch are reflected" holds.
func TestSnapshotEpochTracksBusSeq(t *testing.T) {
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "ep", 100, nil)
	})
	for i := 0; i < 3; i++ {
		grantOne(t, m, requestQuantity("c", "ep", 1))
		snap := m.only().store.Snapshot()
		if snap.Epoch() > m.bus.Seq() {
			t.Fatalf("snapshot epoch %d ahead of bus seq %d", snap.Epoch(), m.bus.Seq())
		}
	}
	// After quiescence the latest snapshot must have caught up with every
	// published event (the grant commit publishes before its events, so
	// the snapshot that reflects grant N carries epoch >= seq(N-1); the
	// next commit catches up). Grant once more and check monotonicity.
	before := m.only().store.Snapshot().Epoch()
	grantOne(t, m, requestQuantity("c", "ep", 1))
	after := m.only().store.Snapshot().Epoch()
	if after < before {
		t.Fatalf("epoch went backwards: %d -> %d", before, after)
	}
}

// --- pre-filter tests -------------------------------------------------

// TestPrefilterSkewedPlacementSkipsShards pins the headline behaviour:
// with every property-satisfying instance on one shard, a property grant
// reserves only that shard — the other shards see no reservation traffic
// at all — and the skip counter surfaces in Stats.
func TestPrefilterSkewedPlacementSkipsShards(t *testing.T) {
	s, _ := newShardedT(t, Config{Shards: 8, DefaultDuration: time.Hour})
	host := 3
	for i := 0; i < 6; i++ {
		id := nameOnShard(t, s, host, fmt.Sprintf("skew-%d", i))
		if err := s.CreateInstance(id, map[string]predicate.Value{"gpu": predicate.Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}
	if sum := s.shards[host].cand.summary.Load(); sum.Hostable != 6 || sum.Slots != 0 {
		t.Fatalf("host index before grants: hostable=%d slots=%d, want 6/0", sum.Hostable, sum.Slots)
	}
	const grants = 4
	var ids []string
	for i := 0; i < grants; i++ {
		pr := grantQty(t, s, "c", MustProperty("gpu"))
		if !pr.Accepted {
			t.Fatalf("grant %d rejected: %s", i, pr.Reason)
		}
		ids = append(ids, pr.PromiseID)
	}
	// Tentatively-held instances stay hostable (the matcher may rearrange
	// them); the slot count tracks the active property promises.
	if sum := s.shards[host].cand.summary.Load(); sum.Hostable != 6 || sum.Slots != grants {
		t.Fatalf("host index after grants: hostable=%d slots=%d, want 6/%d", sum.Hostable, sum.Slots, grants)
	}
	st := s.Stats()
	for _, shard := range st.PerShard {
		if shard.Shard == host {
			if shard.Requests == 0 {
				t.Fatalf("host shard saw no requests: %+v", st.PerShard)
			}
			continue
		}
		if shard.Requests != 0 {
			t.Fatalf("shard %d was reserved despite hosting nothing: %+v", shard.Shard, shard)
		}
	}
	if want := int64(grants * (s.NumShards() - 1)); st.PrefilterSkipped != want {
		t.Fatalf("PrefilterSkipped = %d, want %d", st.PrefilterSkipped, want)
	}
	for _, id := range ids {
		if errs := checkB(t, s, "c", []string{id}); errs[0] != nil {
			t.Fatalf("granted promise unusable: %v", errs[0])
		}
	}
	mustHealthy(t, s)
}

// TestPrefilterValuePruning pins tier 2: with no property slot anywhere,
// shards whose hostable instances cannot satisfy the requested values are
// skipped even though they are not empty.
func TestPrefilterValuePruning(t *testing.T) {
	s, _ := newShardedT(t, Config{Shards: 4, DefaultDuration: time.Hour})
	// Shard 1 hosts tier=1 instances, shard 2 hosts tier=2 instances.
	for i := 0; i < 2; i++ {
		id := nameOnShard(t, s, 1, fmt.Sprintf("vp1-%d", i))
		if err := s.CreateInstance(id, map[string]predicate.Value{"tier": predicate.Int(1)}); err != nil {
			t.Fatal(err)
		}
		id = nameOnShard(t, s, 2, fmt.Sprintf("vp2-%d", i))
		if err := s.CreateInstance(id, map[string]predicate.Value{"tier": predicate.Int(2)}); err != nil {
			t.Fatal(err)
		}
	}
	pr := grantQty(t, s, "c", MustProperty("tier = 2"))
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	st := s.Stats()
	if st.PerShard[1].Requests != 0 {
		t.Fatalf("tier=1 shard was reserved for a tier=2 predicate: %+v", st.PerShard)
	}
	if st.PerShard[2].Requests == 0 {
		t.Fatalf("tier=2 shard was not reserved: %+v", st.PerShard)
	}
	// 3 of 4 shards skipped: shard 0, shard 3 (empty) and shard 1 (value-pruned).
	if st.PrefilterSkipped != 3 {
		t.Fatalf("PrefilterSkipped = %d, want 3", st.PrefilterSkipped)
	}
	mustHealthy(t, s)
}

// noAlarmClock hides clock.Fake's Alarmer so promises lapse only on the
// request path (the reservation-time sweep), never at their deadline —
// the configuration where expired-but-unswept holds persist.
type noAlarmClock struct{ f *clock.Fake }

func (c noAlarmClock) Now() time.Time { return c.f.Now() }

// TestPrefilterSeesThroughExpiredPins pins the equivalence edge the index
// alone cannot express: a shard whose only instance is held by a
// wall-clock-expired (but not yet lapsed) named promise must still be
// reserved for a property grant, because the reservation's sweep frees
// the instance. The index marks such instances pinned-until-expiry and
// the pre-filter stops trusting the shard's cannot-contribute verdict
// past that instant.
func TestPrefilterSeesThroughExpiredPins(t *testing.T) {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	s, err := New(Config{Shards: 4, Clock: noAlarmClock{f: fake}, DefaultDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	inst := nameOnShard(t, s, 2, "pin")
	if err := s.CreateInstance(inst, map[string]predicate.Value{"gpu": predicate.Bool(true)}); err != nil {
		t.Fatal(err)
	}
	// Pin the only satisfying instance under a short named promise.
	resp, err := s.Execute(bg, Request{Client: "holder", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named(inst)},
		Duration:   time.Minute,
	}}})
	if err != nil || !resp.Promises[0].Accepted {
		t.Fatalf("%v %v", resp, err)
	}
	// While the hold is live, the property grant must be rejected — and
	// the pre-filter may not skip the shard in a way that changes that.
	pr := grantQty(t, s, "c", MustProperty("gpu"))
	if pr.Accepted {
		t.Fatalf("grant accepted while instance pinned")
	}
	// Past the deadline nothing has swept (no alarms): the index still
	// says the shard has nothing hostable, but the pinned-expiry makes
	// the pre-filter reserve it, and the reservation's sweep frees the
	// instance — the grant must succeed, exactly as on a single store.
	fake.Advance(2 * time.Minute)
	pr = grantQty(t, s, "c", MustProperty("gpu"))
	if !pr.Accepted {
		t.Fatalf("grant rejected despite expired pin: %s", pr.Reason)
	}
	mustHealthy(t, s)
}

// TestPrefilterNeqKindMismatch pins indexMay's agreement with Eval on the
// one operator whose kind-mismatch semantics differ from ordered
// comparison: `x != lit` evaluates TRUE when x's kind differs from lit's
// (Eval goes through Value.Equal, not Compare), so the value-pruning tier
// must not exclude the shard holding such an instance.
func TestPrefilterNeqKindMismatch(t *testing.T) {
	s, _ := newShardedT(t, Config{Shards: 4, DefaultDuration: time.Hour})
	inst := nameOnShard(t, s, 1, "neq")
	// color is a string; the predicate compares it to an int literal.
	if err := s.CreateInstance(inst, map[string]predicate.Value{"color": predicate.Str("blue")}); err != nil {
		t.Fatal(err)
	}
	pr := grantQty(t, s, "c", MustProperty("color != 5"))
	if !pr.Accepted {
		t.Fatalf("kind-mismatched != rejected by pre-filter: %s", pr.Reason)
	}
	// The ordered comparisons keep erroring on kind mismatch, so the same
	// shard is correctly prunable for them — and the request rejects
	// identically to the single store.
	if pr := grantQty(t, s, "c", MustProperty("color > 5")); pr.Accepted {
		t.Fatal("ordered comparison across kinds granted")
	}
	mustHealthy(t, s)
}

// TestPrefilterEquivalence drives identical randomized property-heavy
// workloads through two Managers — pre-filter enabled vs the
// all-shards path — across shard counts and seeds, asserting identical
// accept/reject decisions, identical lifecycle sentinels and identical
// pool levels. This is the executable form of the pre-filter's soundness
// contract.
func TestPrefilterEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		for seed64 := int64(1); seed64 <= 3; seed64++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed64), func(t *testing.T) {
				runPrefilterEquivalence(t, shards, seed64)
			})
		}
	}
}

func runPrefilterEquivalence(t *testing.T, shards int, seed64 int64) {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	// The "off" engine is the fully conservative reference: all-shards
	// routing and reservations (no pre-filter, so no shrunken lock set)
	// and the scan-based property planner (no index-served fast path).
	// The "on" engine runs every optimisation; accept/reject decisions,
	// lifecycle sentinels and pool levels must still be identical.
	mkEngine := func(disable bool) *Manager {
		s, err := New(Config{Shards: shards, Clock: fake, DefaultDuration: time.Hour, disableFastPath: disable})
		if err != nil {
			t.Fatal(err)
		}
		s.disablePrefilter = disable
		return s
	}
	on, off := mkEngine(false), mkEngine(true)

	rng := rand.New(rand.NewSource(seed64))
	var pools, insts []string
	exprs := []string{
		"gpu", "not gpu", "tier = 1", "tier >= 1", "tier = 2 or gpu",
		"zone = 0 or zone = 3", "gpu and tier >= 1", "tier in (0, 2)",
		"tier != 1", "tier != \"x\"", "zone != 9",
	}
	for i := 0; i < 3; i++ {
		pool := fmt.Sprintf("pf-pool-%d", i)
		capQty := int64(6 + rng.Intn(8))
		for _, s := range []*Manager{on, off} {
			if err := s.CreatePool(pool, capQty, nil); err != nil {
				t.Fatal(err)
			}
		}
		pools = append(pools, pool)
	}
	// Skewed placement: all instances land on at most two shards, so the
	// pre-filter has real skipping to do on wide configurations.
	for i := 0; i < 10; i++ {
		inst := nameOnShard(t, on, i%2, fmt.Sprintf("pf-inst-%d", i))
		props := map[string]predicate.Value{
			"gpu":  predicate.Bool(rng.Intn(2) == 0),
			"tier": predicate.Int(int64(rng.Intn(3))),
			"zone": predicate.Int(int64(rng.Intn(4))),
		}
		for _, s := range []*Manager{on, off} {
			if err := s.CreateInstance(inst, props); err != nil {
				t.Fatal(err)
			}
		}
		insts = append(insts, inst)
	}

	type pair struct{ onID, offID string }
	var pairs []pair
	randPred := func() Predicate {
		switch rng.Intn(6) {
		case 0:
			return Quantity(pools[rng.Intn(len(pools))], int64(1+rng.Intn(4)))
		case 1:
			return Named(insts[rng.Intn(len(insts))])
		default:
			return MustProperty(exprs[rng.Intn(len(exprs))])
		}
	}

	for step := 0; step < 60; step++ {
		switch rng.Intn(5) {
		case 0, 1, 2: // grant, possibly an upgrade releasing earlier promises
			n := 1 + rng.Intn(2)
			preds := make([]Predicate, n)
			for i := range preds {
				preds[i] = randPred()
			}
			var relOn, relOff []string
			if len(pairs) > 0 && rng.Intn(4) == 0 {
				p := pairs[rng.Intn(len(pairs))]
				relOn, relOff = []string{p.onID}, []string{p.offID}
			}
			respOn, errOn := on.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{Predicates: preds, Releases: relOn}}})
			respOff, errOff := off.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{Predicates: preds, Releases: relOff}}})
			if errOn != nil || errOff != nil {
				t.Fatalf("step %d: execute errors: on=%v off=%v", step, errOn, errOff)
			}
			pOn, pOff := respOn.Promises[0], respOff.Promises[0]
			if pOn.Accepted != pOff.Accepted {
				t.Fatalf("step %d diverged: prefilter accepted=%v (%s), all-shards accepted=%v (%s)\npreds=%v",
					step, pOn.Accepted, pOn.Reason, pOff.Accepted, pOff.Reason, preds)
			}
			if pOn.Accepted {
				pairs = append(pairs, pair{onID: pOn.PromiseID, offID: pOff.PromiseID})
			}
		case 3: // release
			if len(pairs) == 0 {
				continue
			}
			p := pairs[rng.Intn(len(pairs))]
			respOn, errOn := on.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: p.onID, Release: true}}})
			respOff, errOff := off.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: p.offID, Release: true}}})
			if errOn != nil || errOff != nil {
				t.Fatalf("step %d: release errors: on=%v off=%v", step, errOn, errOff)
			}
			if (respOn.ActionErr == nil) != (respOff.ActionErr == nil) {
				t.Fatalf("step %d: release diverged: on=%v off=%v", step, respOn.ActionErr, respOff.ActionErr)
			}
		case 4: // expiry
			fake.Advance(time.Duration(10+rng.Intn(30)) * time.Second)
		}
	}

	// Every tracked pair must report the same lifecycle sentinel.
	for _, p := range pairs {
		eOn := checkB(t, on, "c", []string{p.onID})[0]
		eOff := checkB(t, off, "c", []string{p.offID})[0]
		if (eOn == nil) != (eOff == nil) ||
			errors.Is(eOn, ErrPromiseReleased) != errors.Is(eOff, ErrPromiseReleased) ||
			errors.Is(eOn, ErrPromiseExpired) != errors.Is(eOff, ErrPromiseExpired) {
			t.Fatalf("pair (%s, %s) sentinels diverged: on=%v off=%v", p.onID, p.offID, eOn, eOff)
		}
	}
	// Pool levels never drift.
	for _, pool := range pools {
		lOn, err := on.PoolLevel(pool)
		if err != nil {
			t.Fatal(err)
		}
		lOff, err := off.PoolLevel(pool)
		if err != nil {
			t.Fatal(err)
		}
		if lOn != lOff {
			t.Fatalf("pool %s drifted: prefilter=%d all-shards=%d", pool, lOn, lOff)
		}
	}
	mustHealthy(t, on)
	mustHealthy(t, off)
	if shards > 2 {
		if st := on.Stats(); st.PrefilterSkipped == 0 {
			t.Fatalf("prefilter never skipped a shard on a skewed %d-shard workload", shards)
		}
	}
}
