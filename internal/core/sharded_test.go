package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/predicate"
)

// newShardedT builds a sharded manager on a fake clock. The default shard
// count follows the CI matrix (testShards); scenarios that pin resources
// to specific shard indices set cfg.Shards explicitly.
func newShardedT(t *testing.T, cfg Config) (*Manager, *clock.Fake) {
	t.Helper()
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	if cfg.Clock == nil {
		cfg.Clock = fake
	}
	if cfg.Shards == 0 {
		cfg.Shards = testShards(4)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, fake
}

// nameOnShard generates a resource id hashing to the given shard (modulo
// the actual shard count, so shard-count-generic tests still run under the
// single-shard CI matrix leg).
func nameOnShard(tb testing.TB, s *Manager, shard int, base string) string {
	tb.Helper()
	shard %= s.NumShards()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("%s-%d", base, i)
		if s.ShardOf(name) == shard {
			return name
		}
	}
	tb.Fatalf("no name on shard %d", shard)
	return ""
}

func mustPool(t *testing.T, s *Manager, id string, qty int64) {
	t.Helper()
	if err := s.CreatePool(id, qty, nil); err != nil {
		t.Fatal(err)
	}
}

func grantQty(t *testing.T, s *Manager, client string, preds ...Predicate) PromiseResponse {
	t.Helper()
	resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{Predicates: preds}}})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Promises[0]
}

func mustHealthy(t *testing.T, s *Manager) {
	t.Helper()
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("audit unhealthy: %s", rep)
	}
}

func TestShardedSingleShardGrantRelease(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	pool := nameOnShard(t, s, 2, "widgets")
	mustPool(t, s, pool, 10)

	pr := grantQty(t, s, "c", Quantity(pool, 4))
	if !pr.Accepted {
		t.Fatalf("rejected: %s", pr.Reason)
	}
	// Single-shard promises carry their owning shard in the id prefix.
	if want := fmt.Sprintf("%s%d-", shardIDPrefix, s.ShardOf(pool)); !strings.HasPrefix(pr.PromiseID, want) {
		t.Fatalf("promise id %q not issued by shard %d", pr.PromiseID, s.ShardOf(pool))
	}
	info, err := s.PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Client != "c" || len(info.Predicates) != 1 {
		t.Fatalf("bad info: %+v", info)
	}
	// 4 reserved: 7 more must be rejected, 6 granted after release.
	if over := grantQty(t, s, "c", Quantity(pool, 7)); over.Accepted {
		t.Fatal("over-granted beyond capacity")
	}
	if _, err := s.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	if full := grantQty(t, s, "c", Quantity(pool, 10)); !full.Accepted {
		t.Fatalf("release did not free capacity: %s", full.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedCrossShardAtomicGrant(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 0, "alpha")
	b := nameOnShard(t, s, 3, "bravo")
	mustPool(t, s, a, 10)
	mustPool(t, s, b, 10)

	pr := grantQty(t, s, "c", Quantity(a, 3), Quantity(b, 4))
	if !pr.Accepted {
		t.Fatalf("cross-shard grant rejected: %s", pr.Reason)
	}
	if s.ShardOf(a) != s.ShardOf(b) && !strings.HasPrefix(pr.PromiseID, "shp-") {
		t.Fatalf("expected composite id, got %q", pr.PromiseID)
	}
	info, err := s.PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Predicates) != 2 || info.Predicates[0].Pool != a || info.Predicates[1].Pool != b {
		t.Fatalf("composite reconstruction wrong: %+v", info.Predicates)
	}
	// Both shards hold the reservation.
	if over := grantQty(t, s, "c", Quantity(a, 8)); over.Accepted {
		t.Fatal("shard 0 reservation missing")
	}
	if over := grantQty(t, s, "c", Quantity(b, 7)); over.Accepted {
		t.Fatal("shard 3 reservation missing")
	}
	if errs := checkB(t, s, "c", []string{pr.PromiseID}); errs[0] != nil {
		t.Fatalf("composite not usable: %v", errs[0])
	}
	// Releasing the composite frees both shards atomically.
	if _, err := s.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	if full := grantQty(t, s, "c", Quantity(a, 10), Quantity(b, 10)); !full.Accepted {
		t.Fatalf("composite release leaked holds: %s", full.Reason)
	}
	// The single-store sentinel contract holds for composites too.
	if errs := checkB(t, s, "c", []string{pr.PromiseID}); !errors.Is(errs[0], ErrPromiseReleased) {
		t.Fatalf("released composite reports %v, want ErrPromiseReleased", errs[0])
	}
	mustHealthy(t, s)
}

func TestShardedCrossShardRejectionRollsBack(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 1, "first")
	b := nameOnShard(t, s, 2, "second")
	mustPool(t, s, a, 10)
	mustPool(t, s, b, 5)

	pr := grantQty(t, s, "c", Quantity(a, 3), Quantity(b, 99))
	if pr.Accepted {
		t.Fatal("granted beyond shard capacity")
	}
	if !strings.Contains(pr.Reason, b) {
		t.Fatalf("reason %q does not name the failing pool", pr.Reason)
	}
	// The sub-grant on a's shard must have been rolled back.
	if full := grantQty(t, s, "c", Quantity(a, 10)); !full.Accepted {
		t.Fatalf("rejected cross-shard grant leaked a reservation: %s", full.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedReleasesSurviveRejectedGrant(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 0, "keep")
	b := nameOnShard(t, s, 1, "want")
	mustPool(t, s, a, 10)
	mustPool(t, s, b, 5)

	old := grantQty(t, s, "c", Quantity(a, 2))
	if !old.Accepted {
		t.Fatal(old.Reason)
	}
	pr, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(b, 99)},
		Releases:   []string{old.PromiseID},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Promises[0].Accepted {
		t.Fatal("granted beyond capacity")
	}
	// §4: release targets stay in force when the grant is rejected.
	if errs := checkB(t, s, "c", []string{old.PromiseID}); errs[0] != nil {
		t.Fatalf("release target was consumed by a rejected grant: %v", errs[0])
	}
	mustHealthy(t, s)
}

func TestShardedCrossShardUpgradeReleasesOld(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 0, "up-a")
	b := nameOnShard(t, s, 2, "up-b")
	mustPool(t, s, a, 10)
	mustPool(t, s, b, 10)

	old := grantQty(t, s, "c", Quantity(a, 2), Quantity(b, 2))
	if !old.Accepted {
		t.Fatal(old.Reason)
	}
	resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(a, 5), Quantity(b, 5)},
		Releases:   []string{old.PromiseID},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	up := resp.Promises[0]
	if !up.Accepted {
		t.Fatalf("upgrade rejected: %s", up.Reason)
	}
	if errs := checkB(t, s, "c", []string{old.PromiseID}); !errors.Is(errs[0], ErrPromiseReleased) {
		t.Fatalf("upgraded-away composite reports %v, want ErrPromiseReleased", errs[0])
	}
	// Exactly 5 reserved per pool now.
	if over := grantQty(t, s, "c", Quantity(a, 6)); over.Accepted {
		t.Fatal("old reservation leaked")
	}
	if fit := grantQty(t, s, "c", Quantity(a, 5), Quantity(b, 5)); !fit.Accepted {
		t.Fatalf("upgrade did not free old holds: %s", fit.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedCrossShardUpgradeNeedsFreedCapacity(t *testing.T) {
	// The §4 upgrade that motivated the reserve/confirm pipeline: "release
	// 5, promise 8 from the freed 5", with the new grant spanning shards.
	// The request is only satisfiable if the release applies tentatively
	// before planning — the single-shot path PR 1 shipped rejected it.
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 0, "tight-a")
	b := nameOnShard(t, s, 2, "tight-b")
	mustPool(t, s, a, 8)
	mustPool(t, s, b, 1)

	old := grantQty(t, s, "c", Quantity(a, 5))
	if !old.Accepted {
		t.Fatal(old.Reason)
	}
	resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(a, 8), Quantity(b, 1)},
		Releases:   []string{old.PromiseID},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	up := resp.Promises[0]
	if !up.Accepted {
		t.Fatalf("cross-shard upgrade rejected despite freed capacity: %s", up.Reason)
	}
	if errs := checkB(t, s, "c", []string{old.PromiseID}); !errors.Is(errs[0], ErrPromiseReleased) {
		t.Fatalf("upgraded-away promise reports %v, want ErrPromiseReleased", errs[0])
	}
	// Everything is held by the upgrade now; releasing it frees it all.
	if over := grantQty(t, s, "c", Quantity(a, 1)); over.Accepted {
		t.Fatal("upgrade double-counted the freed capacity")
	}
	if _, err := s.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: up.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	if full := grantQty(t, s, "c", Quantity(a, 8), Quantity(b, 1)); !full.Accepted {
		t.Fatalf("upgrade leaked holds: %s", full.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedUpgradeAbortRestoresReleases(t *testing.T) {
	// Mid-pipeline abort: shard a's reservation tentatively applies the
	// release, then shard b rejects its slice. The abort must roll shard
	// a back so the released promise springs back untouched (§4).
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 1, "abort-a")
	b := nameOnShard(t, s, 3, "abort-b")
	mustPool(t, s, a, 10)
	mustPool(t, s, b, 5)

	old := grantQty(t, s, "c", Quantity(a, 10))
	if !old.Accepted {
		t.Fatal(old.Reason)
	}
	resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(a, 10), Quantity(b, 99)},
		Releases:   []string{old.PromiseID},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Promises[0].Accepted {
		t.Fatal("granted beyond shard b capacity")
	}
	// The release must not have stuck: old is still usable and still
	// holding all 10 units on shard a.
	if errs := checkB(t, s, "c", []string{old.PromiseID}); errs[0] != nil {
		t.Fatalf("release target consumed by aborted upgrade: %v", errs[0])
	}
	if over := grantQty(t, s, "c", Quantity(a, 1)); over.Accepted {
		t.Fatal("aborted upgrade leaked shard a's tentative release")
	}
	mustHealthy(t, s)
}

func TestShardedPropertyUpgradeAcrossShards(t *testing.T) {
	// An upgrade whose new property predicates are only jointly satisfiable
	// if the released promise's instance is freed first: x (shard 0) is the
	// only instance satisfying q, and the old promise holds it.
	s, _ := newShardedT(t, Config{})
	x := nameOnShard(t, s, 0, "inst-x")
	y := nameOnShard(t, s, 2, "inst-y")
	if err := s.CreateInstance(x, map[string]predicate.Value{
		"p": predicate.Bool(true), "q": predicate.Bool(true),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateInstance(y, map[string]predicate.Value{
		"p": predicate.Bool(true), "q": predicate.Bool(false),
	}); err != nil {
		t.Fatal(err)
	}

	old := grantQty(t, s, "c", MustProperty("q"))
	if !old.Accepted {
		t.Fatal(old.Reason)
	}
	resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{MustProperty("p"), MustProperty("q")},
		Releases:   []string{old.PromiseID},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	up := resp.Promises[0]
	if !up.Accepted {
		t.Fatalf("property upgrade rejected despite freed instance: %s", up.Reason)
	}
	// q must be backed by x; p must have landed on y (the global match had
	// to place the two predicates on different shards).
	info, err := s.PromiseInfo(up.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Assigned[1] != x || info.Assigned[0] != y {
		t.Fatalf("assignments = %v, want [%s %s]", info.Assigned, y, x)
	}
	mustHealthy(t, s)
}

func TestShardedNamedDisplacesPropertySlotAcrossShards(t *testing.T) {
	// The single-store semantics the pipeline must keep: a named predicate
	// may claim an instance tentatively allocated to a property promise,
	// as long as the displaced slot can be re-hosted — even when the only
	// other satisfying instance lives on a different shard. The slot's
	// sub-promise is then migrated between shards, keeping its id.
	s, _ := newShardedT(t, Config{Shards: 4})
	x := nameOnShard(t, s, 0, "disp-x")
	y := nameOnShard(t, s, 2, "disp-y")
	for _, id := range []string{x, y} {
		if err := s.CreateInstance(id, map[string]predicate.Value{"p": predicate.Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}

	prop := grantQty(t, s, "c", MustProperty("p"))
	if !prop.Accepted {
		t.Fatal(prop.Reason)
	}
	info, err := s.PromiseInfo(prop.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	taken := info.Assigned[0]
	other := x
	if taken == x {
		other = y
	}

	named := grantQty(t, s, "d", Named(taken))
	if !named.Accepted {
		t.Fatalf("named grant on property-held instance rejected: %s", named.Reason)
	}
	// The property promise survives, re-hosted on the other shard's
	// instance under the same id.
	if errs := checkB(t, s, "c", []string{prop.PromiseID}); errs[0] != nil {
		t.Fatalf("displaced property promise unusable: %v", errs[0])
	}
	info, err = s.PromiseInfo(prop.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Assigned[0] != other {
		t.Fatalf("displaced slot assigned %q, want %q", info.Assigned[0], other)
	}
	// Both instances are now held: a third claim must fail, and releasing
	// the migrated promise must free its (new) instance.
	if dup := grantQty(t, s, "e", MustProperty("p")); dup.Accepted {
		t.Fatal("double-granted a held instance")
	}
	if _, err := s.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: prop.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	if again := grantQty(t, s, "e", Named(other)); !again.Accepted {
		t.Fatalf("migrated promise's release did not free %s: %s", other, again.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedCompositePartMigration(t *testing.T) {
	// A migrating slot that is part of a composite: the composite's
	// directory entry must follow the part to its new shard, so release,
	// checks and audit keep working on the whole.
	s, _ := newShardedT(t, Config{Shards: 4})
	x := nameOnShard(t, s, 0, "cpm-x")
	y := nameOnShard(t, s, 2, "cpm-y")
	pool := nameOnShard(t, s, 1, "cpm-pool")
	for _, id := range []string{x, y} {
		if err := s.CreateInstance(id, map[string]predicate.Value{"p": predicate.Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}
	mustPool(t, s, pool, 10)

	comp := grantQty(t, s, "c", MustProperty("p"), Quantity(pool, 3))
	if !comp.Accepted {
		t.Fatal(comp.Reason)
	}
	if !strings.HasPrefix(comp.PromiseID, "shp-") {
		t.Fatalf("expected composite, got %q", comp.PromiseID)
	}
	info, err := s.PromiseInfo(comp.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	taken := info.Assigned[0]

	// Claim the composite's instance by name, forcing its property part to
	// migrate to the other instance's shard.
	if named := grantQty(t, s, "d", Named(taken)); !named.Accepted {
		t.Fatalf("named claim rejected: %s", named.Reason)
	}
	if errs := checkB(t, s, "c", []string{comp.PromiseID}); errs[0] != nil {
		t.Fatalf("composite unusable after part migration: %v", errs[0])
	}
	info, err = s.PromiseInfo(comp.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Assigned[0] == taken {
		t.Fatal("composite part not re-hosted")
	}
	mustHealthy(t, s) // audit walks the updated directory and moved table

	// Releasing the composite frees the migrated part on its new shard and
	// the escrow on the pool's shard.
	if _, err := s.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: comp.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	if errs := checkB(t, s, "c", []string{comp.PromiseID}); !errors.Is(errs[0], ErrPromiseReleased) {
		t.Fatalf("released composite reports %v, want ErrPromiseReleased", errs[0])
	}
	if full := grantQty(t, s, "c", Quantity(pool, 10)); !full.Accepted {
		t.Fatalf("composite release leaked escrow: %s", full.Reason)
	}
	if free := grantQty(t, s, "c", MustProperty("p")); !free.Accepted {
		t.Fatalf("composite release leaked the migrated instance: %s", free.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedPropertyAcrossShards(t *testing.T) {
	// Pinned shard count: the scenario places the one matching room on
	// shard 2 specifically.
	s, _ := newShardedT(t, Config{Shards: 4})
	// Rooms scattered over shards; only one satisfies the predicate.
	for shard := 0; shard < s.NumShards(); shard++ {
		id := nameOnShard(t, s, shard, "room")
		props := map[string]predicate.Value{
			"floor": predicate.Int(int64(shard)),
			"view":  predicate.Bool(shard == 2),
		}
		if err := s.CreateInstance(id, props); err != nil {
			t.Fatal(err)
		}
	}
	pr := grantQty(t, s, "c", MustProperty("view and floor = 2"))
	if !pr.Accepted {
		t.Fatalf("property grant rejected: %s", pr.Reason)
	}
	// The only matching instance is promised now; a second request fails.
	if dup := grantQty(t, s, "c", MustProperty("view and floor = 2")); dup.Accepted {
		t.Fatal("double-granted the only matching instance")
	}
	if _, err := s.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	if again := grantQty(t, s, "c", MustProperty("view and floor = 2")); !again.Accepted {
		t.Fatalf("release did not free the instance: %s", again.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedNamedAcrossShardsAtomic(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 0, "seat-a")
	b := nameOnShard(t, s, 3, "seat-b")
	for _, id := range []string{a, b} {
		if err := s.CreateInstance(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	pr := grantQty(t, s, "c", Named(a), Named(b))
	if !pr.Accepted {
		t.Fatalf("cross-shard named grant rejected: %s", pr.Reason)
	}
	if solo := grantQty(t, s, "d", Named(a)); solo.Accepted {
		t.Fatal("instance double-granted")
	}
	if _, err := s.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	if solo := grantQty(t, s, "d", Named(a)); !solo.Accepted {
		t.Fatalf("instance not freed: %s", solo.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedActionRoutedToResourceShard(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	pool := nameOnShard(t, s, 3, "stock")
	mustPool(t, s, pool, 10)

	pr := grantQty(t, s, "c", Quantity(pool, 5))
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	// Consume under the promise: action must land on shard 3 via the
	// Resources hint even though the env promise already routes there.
	resp, err := s.Execute(bg, Request{
		Client:    "c",
		Env:       []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Resources: []string{pool},
		Action: func(ac *ActionContext) (any, error) {
			return ac.Resources.AdjustPool(ac.Tx, pool, -5)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatalf("action failed: %v", resp.ActionErr)
	}
	lvl, err := s.PoolLevel(pool)
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 5 {
		t.Fatalf("pool level = %d, want 5", lvl)
	}
	if errs := checkB(t, s, "c", []string{pr.PromiseID}); !errors.Is(errs[0], ErrPromiseReleased) {
		t.Fatalf("promise not released with action: %v", errs[0])
	}
	mustHealthy(t, s)
}

func TestShardedActionFailureKeepsCrossShardEnv(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 0, "env-a")
	b := nameOnShard(t, s, 1, "env-b")
	mustPool(t, s, a, 10)
	mustPool(t, s, b, 10)
	pa := grantQty(t, s, "c", Quantity(a, 1))
	pb := grantQty(t, s, "c", Quantity(b, 1))

	boom := errors.New("boom")
	resp, err := s.Execute(bg, Request{
		Client: "c",
		Env: []EnvEntry{
			{PromiseID: pa.PromiseID, Release: true},
			{PromiseID: pb.PromiseID, Release: true},
		},
		Resources: []string{a},
		Action:    func(*ActionContext) (any, error) { return nil, boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, boom) {
		t.Fatalf("ActionErr = %v, want boom", resp.ActionErr)
	}
	// §4: the promises remain in force because the action failed.
	for i, err := range checkB(t, s, "c", []string{pa.PromiseID, pb.PromiseID}) {
		if err != nil {
			t.Fatalf("env promise %d not in force after failed action: %v", i, err)
		}
	}
	mustHealthy(t, s)
}

func TestShardedEnvReleaseAppliedOnActionSuccess(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 0, "rel-a")
	b := nameOnShard(t, s, 2, "rel-b")
	mustPool(t, s, a, 10)
	mustPool(t, s, b, 10)
	pa := grantQty(t, s, "c", Quantity(a, 1))
	pb := grantQty(t, s, "c", Quantity(b, 1))

	resp, err := s.Execute(bg, Request{
		Client: "c",
		Env: []EnvEntry{
			{PromiseID: pa.PromiseID, Release: true},
			{PromiseID: pb.PromiseID, Release: true},
		},
		Resources: []string{a},
		Action: func(ac *ActionContext) (any, error) {
			return ac.Resources.AdjustPool(ac.Tx, a, -1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatal(resp.ActionErr)
	}
	for i, err := range checkB(t, s, "c", []string{pa.PromiseID, pb.PromiseID}) {
		if !errors.Is(err, ErrPromiseReleased) {
			t.Fatalf("env promise %d not released with successful action: %v", i, err)
		}
	}
	mustHealthy(t, s)
}

func TestShardedGrantBatch(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	var pools []string
	for shard := 0; shard < s.NumShards(); shard++ {
		p := nameOnShard(t, s, shard, "batch")
		mustPool(t, s, p, 100)
		pools = append(pools, p)
	}
	var reqs []PromiseRequest
	for i := 0; i < 12; i++ {
		reqs = append(reqs, PromiseRequest{
			RequestID:  fmt.Sprintf("r%d", i),
			Predicates: []Predicate{Quantity(pools[i%len(pools)], 1)},
		})
	}
	// One cross-shard request in the middle.
	reqs = append(reqs[:6], append([]PromiseRequest{{
		RequestID:  "cross",
		Predicates: []Predicate{Quantity(pools[0], 1), Quantity(pools[len(pools)-1], 1)},
	}}, reqs[6:]...)...)

	resps, err := s.GrantBatch(bg, "c", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	ids := make([]string, len(resps))
	for i, pr := range resps {
		if !pr.Accepted {
			t.Fatalf("request %d rejected: %s", i, pr.Reason)
		}
		if pr.Correlation != reqs[i].RequestID {
			t.Fatalf("response %d correlates %q, want %q", i, pr.Correlation, reqs[i].RequestID)
		}
		ids[i] = pr.PromiseID
	}
	for i, err := range checkB(t, s, "c", ids) {
		if err != nil {
			t.Fatalf("promise %d unusable: %v", i, err)
		}
	}
	// Wrong client sees nothing.
	for i, err := range checkB(t, s, "intruder", ids) {
		if !errors.Is(err, ErrPromiseNotFound) {
			t.Fatalf("promise %d leaked to another client: %v", i, err)
		}
	}
	mustHealthy(t, s)
}

func TestShardedExpirySweepAcrossShards(t *testing.T) {
	s, fake := newShardedT(t, Config{DefaultDuration: time.Minute})
	a := nameOnShard(t, s, 0, "ttl-a")
	b := nameOnShard(t, s, 1, "ttl-b")
	mustPool(t, s, a, 10)
	mustPool(t, s, b, 10)

	pr := grantQty(t, s, "c", Quantity(a, 10), Quantity(b, 10))
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	fake.Advance(2 * time.Minute)
	if errs := checkB(t, s, "c", []string{pr.PromiseID}); !errors.Is(errs[0], ErrPromiseExpired) {
		t.Fatalf("expired composite reports %v, want ErrPromiseExpired", errs[0])
	}
	if full := grantQty(t, s, "c", Quantity(a, 10), Quantity(b, 10)); !full.Accepted {
		t.Fatalf("expiry did not free holds: %s", full.Reason)
	}
	mustHealthy(t, s)
}

func TestShardedStatsAggregate(t *testing.T) {
	s, _ := newShardedT(t, Config{})
	var pools []string
	for shard := 0; shard < s.NumShards(); shard++ {
		p := nameOnShard(t, s, shard, "stat")
		mustPool(t, s, p, 10)
		pools = append(pools, p)
	}
	for _, p := range pools {
		pr := grantQty(t, s, "c", Quantity(p, 1))
		if !pr.Accepted {
			t.Fatal(pr.Reason)
		}
	}
	st := s.Stats()
	if st.Grants != int64(len(pools)) {
		t.Fatalf("aggregate grants = %d, want %d", st.Grants, len(pools))
	}
	if st.Requests != int64(len(pools)) {
		t.Fatalf("aggregate requests = %d, want %d", st.Requests, len(pools))
	}
	if st.Latency.Count != int(st.Requests) {
		t.Fatalf("latency count = %d, want %d", st.Latency.Count, st.Requests)
	}
	// Per-shard histograms: one request landed on each shard.
	if len(st.PerShard) != s.NumShards() {
		t.Fatalf("len(PerShard) = %d, want %d", len(st.PerShard), s.NumShards())
	}
	for i, ps := range st.PerShard {
		if ps.Shard != i {
			t.Fatalf("PerShard[%d].Shard = %d", i, ps.Shard)
		}
		if ps.Requests != 1 || ps.Grants != 1 || ps.Latency.Count != 1 {
			t.Fatalf("shard %d stats = %+v, want one granted request", i, ps)
		}
	}
	// One request per shard is a perfectly balanced load.
	if st.Imbalance != 1.0 {
		t.Fatalf("Imbalance = %v, want 1.0", st.Imbalance)
	}
	if g := s.Imbalance(); g != st.Imbalance {
		t.Fatalf("Imbalance gauge = %v, want %v", g, st.Imbalance)
	}

	// Skew the load and the gauge must follow: all shards' samples still
	// merge into one exact summary.
	for i := 0; i < 8; i++ {
		if pr := grantQty(t, s, "c", Quantity(pools[0], 1)); !pr.Accepted {
			t.Fatal(pr.Reason)
		}
	}
	st = s.Stats()
	if s.NumShards() > 1 && st.Imbalance <= 1.0 {
		t.Fatalf("Imbalance = %v after skewing shard 0, want > 1.0", st.Imbalance)
	}
	if st.Latency.Count != int(st.Requests) {
		t.Fatalf("merged latency count = %d, want %d", st.Latency.Count, st.Requests)
	}
}

func TestShardedUpgradeInCrossShardMessage(t *testing.T) {
	// A same-shard upgrade (release old, grant bigger from the freed
	// capacity) must keep §4 semantics even when another promise request
	// in the same message forces the cross-shard path.
	s, _ := newShardedT(t, Config{})
	a := nameOnShard(t, s, 0, "msg-a")
	b := nameOnShard(t, s, 1, "msg-b")
	mustPool(t, s, a, 100)
	mustPool(t, s, b, 10)

	old := grantQty(t, s, "c", Quantity(a, 100))
	if !old.Accepted {
		t.Fatal(old.Reason)
	}
	resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{
		{Predicates: []Predicate{Quantity(a, 100)}, Releases: []string{old.PromiseID}},
		{Predicates: []Predicate{Quantity(b, 1)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Promises[0].Accepted {
		t.Fatalf("same-shard upgrade lost release-with-grant semantics in a cross-shard message: %s", resp.Promises[0].Reason)
	}
	if !resp.Promises[1].Accepted {
		t.Fatalf("sibling request rejected: %s", resp.Promises[1].Reason)
	}
	if errs := checkB(t, s, "c", []string{old.PromiseID}); !errors.Is(errs[0], ErrPromiseReleased) {
		t.Fatalf("old promise reports %v, want ErrPromiseReleased", errs[0])
	}
	mustHealthy(t, s)
}

func TestShardedSingleShardConfigMatchesManager(t *testing.T) {
	// Shards=1 runs every request as one transaction on its only shard,
	// including §4 upgrade semantics (releases counted as available).
	s, _ := newShardedT(t, Config{Shards: 1})
	mustPool(t, s, "w", 10)
	old := grantQty(t, s, "c", Quantity("w", 10))
	if !old.Accepted {
		t.Fatal(old.Reason)
	}
	resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("w", 10)},
		Releases:   []string{old.PromiseID},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Promises[0].Accepted {
		t.Fatalf("same-shard upgrade must count released capacity: %s", resp.Promises[0].Reason)
	}
	mustHealthy(t, s)
}
