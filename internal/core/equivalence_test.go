package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/predicate"
	"repro/internal/txn"
)

// This file is the equivalence suite for the two-phase reserve/confirm
// pipeline: a randomized scenario generator drives a single-store Manager
// and a ShardedManager through the same workload — property predicates,
// cross-shard §4 upgrades, batches, expiry — and asserts that every
// request is accepted or rejected identically, that every promise pair
// reports the same lifecycle sentinel, and that pool levels never drift.
// This is the executable form of the sharded.go header's claim that the
// ShardedManager accepts exactly the requests the single store accepts.

// eqWorld drives the same workload through both managers.
type eqWorld struct {
	t       *testing.T
	rng     *rand.Rand
	fake    *clock.Fake
	single  *Manager
	sharded *ShardedManager
	pools   []string
	insts   []string
	exprs   []string
	clients []string
	// pairs tracks (single id, sharded id) per granted promise, including
	// released and expired ones: their sentinels must keep matching.
	pairs []eqPair
	// durSeq makes every preemptible grant's expiry unique: victim
	// selection orders candidates by deadline, and an expiry tie would
	// fall through to the promise id — which the two engines mint
	// differently. Distinct deadlines keep the canonical order (and so
	// the victim sets) engine-independent.
	durSeq int
}

type eqPair struct {
	client   string
	singleID string
	shardID  string
}

// sentinelClass collapses an error to the client-visible lifecycle class.
func sentinelClass(err error) string {
	switch {
	case err == nil:
		return "usable"
	case errors.Is(err, ErrPromiseNotFound):
		return "not-found"
	case errors.Is(err, ErrPromiseReleased):
		return "released"
	case errors.Is(err, ErrPromiseExpired):
		return "expired"
	case errors.Is(err, ErrPromiseViolated):
		return "violated"
	case errors.Is(err, ErrPromisePreempted):
		return "preempted"
	default:
		return "error: " + err.Error()
	}
}

// newEqWorld builds the two engines. singleSlow disables the single
// store's index-served fast path (propmatch.go), making it the scan-based
// §5 reference planner: a workload driven with singleSlow=true pins the
// fast path (still live on the sharded side) against the slow one.
func newEqWorld(t *testing.T, seed int64, shards int, singleSlow bool) *eqWorld {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	single, err := New(Config{Clock: fake, DefaultDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	single.cfg.disableFastPath = singleSlow
	sharded, err := NewSharded(ShardedConfig{Shards: shards, Config: Config{Clock: fake, DefaultDuration: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	w := &eqWorld{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		fake:    fake,
		single:  single,
		sharded: sharded,
		clients: []string{"alice", "bob", "carol"},
		exprs: []string{
			"gpu",
			"not gpu",
			"tier = 1",
			"tier >= 1",
			"zone = 2",
			"zone = 0 or zone = 3",
			"gpu and tier >= 1",
			"tier = 2 or zone = 1",
			"tier in (0, 2)",
			"not (zone in (1, 2))",
			"(gpu and tier = 1) or (not gpu and zone = 2)",
		},
	}
	for i := 0; i < 5; i++ {
		pool := fmt.Sprintf("eq-pool-%d", i)
		cap := int64(8 + w.rng.Intn(12))
		tx := single.Store().Begin(txn.Block)
		if err := single.Resources().CreatePool(tx, pool, cap, nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := sharded.CreatePool(pool, cap, nil); err != nil {
			t.Fatal(err)
		}
		w.pools = append(w.pools, pool)
	}
	for i := 0; i < 18; i++ {
		inst := fmt.Sprintf("eq-inst-%d", i)
		props := map[string]predicate.Value{
			"gpu":  predicate.Bool(w.rng.Intn(2) == 0),
			"tier": predicate.Int(int64(w.rng.Intn(3))),
			"zone": predicate.Int(int64(w.rng.Intn(4))),
		}
		tx := single.Store().Begin(txn.Block)
		if err := single.Resources().CreateInstance(tx, inst, props); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := sharded.CreateInstance(inst, props); err != nil {
			t.Fatal(err)
		}
		w.insts = append(w.insts, inst)
	}
	return w
}

// randPredicate draws one predicate; property predicates dominate because
// they exercise the global matcher.
func (w *eqWorld) randPredicate() Predicate {
	switch w.rng.Intn(5) {
	case 0, 1:
		return Quantity(w.pools[w.rng.Intn(len(w.pools))], int64(1+w.rng.Intn(4)))
	case 2:
		return Named(w.insts[w.rng.Intn(len(w.insts))])
	default:
		return MustProperty(w.exprs[w.rng.Intn(len(w.exprs))])
	}
}

// uniqueDur returns a duration no other preemptible grant in this world
// uses, so candidate deadlines never tie (see durSeq).
func (w *eqWorld) uniqueDur() time.Duration {
	w.durSeq++
	// Stay under the manager's default MaxDuration cap (10 minutes): a
	// clamped duration would collapse distinct requests onto one deadline.
	return 5*time.Minute + time.Duration(w.durSeq)*time.Millisecond
}

// clientPairs returns the indices of pairs owned by client.
func (w *eqWorld) clientPairs(client string) []int {
	var out []int
	for i, p := range w.pairs {
		if p.client == client {
			out = append(out, i)
		}
	}
	return out
}

// grant sends one message with 1-2 promise requests (each possibly a §4
// upgrade releasing earlier promises) to both managers and asserts
// identical accept/reject per request.
func (w *eqWorld) grant() {
	t := w.t
	client := w.clients[w.rng.Intn(len(w.clients))]
	nReq := 1 + w.rng.Intn(2)
	var reqS, reqH []PromiseRequest
	for r := 0; r < nReq; r++ {
		nPred := 1 + w.rng.Intn(3)
		preds := make([]Predicate, nPred)
		for p := range preds {
			preds[p] = w.randPredicate()
		}
		var relS, relH []string
		if owned := w.clientPairs(client); len(owned) > 0 && w.rng.Intn(5) < 2 {
			for k := 0; k < 1+w.rng.Intn(2); k++ {
				pick := w.pairs[owned[w.rng.Intn(len(owned))]]
				relS = append(relS, pick.singleID)
				relH = append(relH, pick.shardID)
			}
		}
		var dur time.Duration
		if w.rng.Intn(6) == 0 {
			dur = time.Duration(1+w.rng.Intn(3)) * time.Minute
		}
		// Priority shapes: spot holds (preemptible, sometimes mid-tier) and
		// on-demand requests that may displace them. Preemptible grants stay
		// single-predicate — a multi-predicate grant is a composite on the
		// sharded side, which its victim filter excludes — and get a unique
		// duration so victim ordering cannot tie on deadlines.
		prio, preemptible := 0, false
		switch w.rng.Intn(6) {
		case 0, 1:
			preemptible = true
		case 2:
			preemptible, prio = true, 1
		case 3:
			prio = 1 + w.rng.Intn(2)
		}
		if preemptible {
			preds = preds[:1]
			dur = w.uniqueDur()
		}
		reqS = append(reqS, PromiseRequest{Predicates: preds, Releases: relS, Duration: dur, Priority: prio, Preemptible: preemptible})
		reqH = append(reqH, PromiseRequest{Predicates: preds, Releases: relH, Duration: dur, Priority: prio, Preemptible: preemptible})
	}
	respS, errS := w.single.Execute(bg, Request{Client: client, PromiseRequests: reqS})
	respH, errH := w.sharded.Execute(bg, Request{Client: client, PromiseRequests: reqH})
	if errS != nil || errH != nil {
		t.Fatalf("execute errors diverge or are internal: single=%v sharded=%v", errS, errH)
	}
	for i := range respS.Promises {
		ps, ph := respS.Promises[i], respH.Promises[i]
		if ps.Accepted != ph.Accepted {
			t.Fatalf("request %d diverged: single accepted=%v (%s), sharded accepted=%v (%s)\npredicates: %v releases: %v/%v",
				i, ps.Accepted, ps.Reason, ph.Accepted, ph.Reason, reqS[i].Predicates, reqS[i].Releases, reqH[i].Releases)
		}
		if ps.Accepted {
			w.pairs = append(w.pairs, eqPair{client: client, singleID: ps.PromiseID, shardID: ph.PromiseID})
		}
	}
}

// release sends a pure release message for one tracked pair (possibly
// already dead) and asserts the same outcome on both sides.
func (w *eqWorld) release() {
	t := w.t
	if len(w.pairs) == 0 {
		return
	}
	pick := w.pairs[w.rng.Intn(len(w.pairs))]
	respS, errS := w.single.Execute(bg, Request{Client: pick.client, Env: []EnvEntry{{PromiseID: pick.singleID, Release: true}}})
	respH, errH := w.sharded.Execute(bg, Request{Client: pick.client, Env: []EnvEntry{{PromiseID: pick.shardID, Release: true}}})
	if errS != nil || errH != nil {
		t.Fatalf("release errors: single=%v sharded=%v", errS, errH)
	}
	cs, ch := sentinelClass(respS.ActionErr), sentinelClass(respH.ActionErr)
	if cs != ch {
		t.Fatalf("release of pair (%s, %s) diverged: single=%s sharded=%s", pick.singleID, pick.shardID, cs, ch)
	}
}

// batch sends independent single-pool requests over distinct pools via
// GrantBatch (order across pools cannot matter, so the engines' different
// internal scheduling must not show).
func (w *eqWorld) batch() {
	t := w.t
	client := w.clients[w.rng.Intn(len(w.clients))]
	perm := w.rng.Perm(len(w.pools))
	n := 2 + w.rng.Intn(2)
	var reqs []PromiseRequest
	for k := 0; k < n; k++ {
		reqs = append(reqs, PromiseRequest{
			Predicates: []Predicate{Quantity(w.pools[perm[k]], int64(1+w.rng.Intn(3)))},
		})
	}
	respS, errS := w.single.GrantBatch(bg, client, reqs)
	respH, errH := w.sharded.GrantBatch(bg, client, reqs)
	if errS != nil || errH != nil {
		t.Fatalf("batch errors: single=%v sharded=%v", errS, errH)
	}
	for i := range respS {
		if respS[i].Accepted != respH[i].Accepted {
			t.Fatalf("batch request %d diverged: single=%v (%s) sharded=%v (%s)",
				i, respS[i].Accepted, respS[i].Reason, respH[i].Accepted, respH[i].Reason)
		}
		if respS[i].Accepted {
			w.pairs = append(w.pairs, eqPair{client: client, singleID: respS[i].PromiseID, shardID: respH[i].PromiseID})
		}
	}
}

// advance moves the shared clock and sweeps both managers, expiring the
// same promises on each.
func (w *eqWorld) advance() {
	w.fake.Advance(time.Duration(30+w.rng.Intn(90)) * time.Second)
	if err := w.single.Sweep(); err != nil {
		w.t.Fatal(err)
	}
	if err := w.sharded.Sweep(); err != nil {
		w.t.Fatal(err)
	}
}

// verify cross-checks every tracked pair's lifecycle sentinel and every
// pool's level.
func (w *eqWorld) verify() {
	t := w.t
	byClient := make(map[string][]int)
	for i, p := range w.pairs {
		byClient[p.client] = append(byClient[p.client], i)
	}
	for client, idxs := range byClient {
		sIDs := make([]string, len(idxs))
		hIDs := make([]string, len(idxs))
		for k, i := range idxs {
			sIDs[k] = w.pairs[i].singleID
			hIDs[k] = w.pairs[i].shardID
		}
		errsS := checkB(t, w.single, client, sIDs)
		errsH := checkB(t, w.sharded, client, hIDs)
		for k := range idxs {
			cs, ch := sentinelClass(errsS[k]), sentinelClass(errsH[k])
			if cs != ch {
				t.Fatalf("pair (%s, %s) lifecycle diverged: single=%s sharded=%s", sIDs[k], hIDs[k], cs, ch)
			}
		}
	}
	for _, pool := range w.pools {
		tx := w.single.Store().Begin(txn.Block)
		p, err := w.single.Resources().Pool(tx, pool)
		_ = tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		lvl, err := w.sharded.PoolLevel(pool)
		if err != nil {
			t.Fatal(err)
		}
		if p.OnHand != lvl {
			t.Fatalf("pool %s level diverged: single=%d sharded=%d", pool, p.OnHand, lvl)
		}
	}
}

func (w *eqWorld) run(iters int) {
	for it := 0; it < iters; it++ {
		switch w.rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			w.grant()
		case 5, 6:
			w.release()
		case 7:
			w.batch()
		case 8:
			w.advance()
		default:
			w.verify()
		}
		if it%25 == 24 {
			w.verify()
		}
		// Cap the tracked set so CheckBatch comparisons stay cheap; dropped
		// pairs were already cross-checked.
		if len(w.pairs) > 64 {
			w.pairs = w.pairs[len(w.pairs)-48:]
		}
	}
	w.verify()
	repS, err := w.single.Audit()
	if err != nil {
		w.t.Fatal(err)
	}
	if !repS.Healthy() {
		w.t.Fatalf("single-store audit unhealthy: %s", repS)
	}
	repH, err := w.sharded.Audit()
	if err != nil {
		w.t.Fatal(err)
	}
	if !repH.Healthy() {
		w.t.Fatalf("sharded audit unhealthy: %s", repH)
	}
}

// TestShardedEquivalence is the acceptance gate for the reserve/confirm
// pipeline: ShardedManager(N) must accept and reject exactly like the
// single-store Manager on randomized property-predicate and
// cross-shard-upgrade workloads, across several seeds.
func TestShardedEquivalence(t *testing.T) {
	shards := testShards(8)
	for seed := int64(1); seed <= 6; seed++ {
		// Even seeds run the single store as the scan-based slow
		// reference, pinning the index-served fast path and the shrunken
		// property lock set (both live on the sharded side) against the
		// §5 planner; odd seeds compare the fast paths to each other.
		slowRef := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/shards=%d/slowref=%v", seed, shards, slowRef), func(t *testing.T) {
			newEqWorld(t, seed, shards, slowRef).run(250)
		})
	}
}

// TestShardedEquivalenceUpgradeHeavy narrows the generator to the §4 shape
// that PR 1 rejected outright: every grant releases the client's previous
// promise and re-promises from the freed capacity, spanning pools (and
// therefore shards) at tight capacities.
func TestShardedEquivalenceUpgradeHeavy(t *testing.T) {
	shards := testShards(8)
	for seed := int64(10); seed <= 13; seed++ {
		t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
			w := newEqWorld(t, seed, shards, false)
			cur := make(map[string]*eqPair)
			for it := 0; it < 200; it++ {
				client := w.clients[w.rng.Intn(len(w.clients))]
				nPred := 1 + w.rng.Intn(3)
				preds := make([]Predicate, nPred)
				for p := range preds {
					// Quantities only: upgrades live in escrow arithmetic.
					preds[p] = Quantity(w.pools[w.rng.Intn(len(w.pools))], int64(1+w.rng.Intn(6)))
				}
				var relS, relH []string
				if prev := cur[client]; prev != nil {
					relS, relH = []string{prev.singleID}, []string{prev.shardID}
				}
				respS, errS := w.single.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{
					{Predicates: preds, Releases: relS},
				}})
				respH, errH := w.sharded.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{
					{Predicates: preds, Releases: relH},
				}})
				if errS != nil || errH != nil {
					t.Fatalf("execute errors: single=%v sharded=%v", errS, errH)
				}
				ps, ph := respS.Promises[0], respH.Promises[0]
				if ps.Accepted != ph.Accepted {
					t.Fatalf("upgrade diverged at iter %d: single=%v (%s) sharded=%v (%s)\npredicates: %v",
						it, ps.Accepted, ps.Reason, ph.Accepted, ph.Reason, preds)
				}
				if ps.Accepted {
					cur[client] = &eqPair{client: client, singleID: ps.PromiseID, shardID: ph.PromiseID}
				}
				if it%20 == 19 {
					w.verify()
				}
			}
			w.verify()
		})
	}
}

// TestShardedEquivalencePreemptionHeavy narrows the generator to the spot
// shape: pools and instances accumulate single-predicate preemptible holds
// until on-demand requests can only land by displacing them. Both engines
// must agree on every accept/reject, on the exact victim set (each pair's
// lifecycle sentinel — usable vs preempted — is cross-checked), and on
// pool levels.
func TestShardedEquivalencePreemptionHeavy(t *testing.T) {
	shards := testShards(8)
	for seed := int64(20); seed <= 23; seed++ {
		slowRef := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/shards=%d/slowref=%v", seed, shards, slowRef), func(t *testing.T) {
			w := newEqWorld(t, seed, shards, slowRef)
			for it := 0; it < 200; it++ {
				client := w.clients[w.rng.Intn(len(w.clients))]
				preds := []Predicate{w.randPredicate()}
				prio, preemptible := 0, false
				var dur time.Duration
				switch w.rng.Intn(5) {
				case 0, 1:
					preemptible, dur = true, w.uniqueDur()
				case 2:
					preemptible, prio, dur = true, 1, w.uniqueDur()
				case 3:
					prio = 1
				default:
					prio = 2
				}
				req := PromiseRequest{Predicates: preds, Duration: dur, Priority: prio, Preemptible: preemptible}
				respS, errS := w.single.GrantBatch(bg, client, []PromiseRequest{req})
				respH, errH := w.sharded.GrantBatch(bg, client, []PromiseRequest{req})
				if errS != nil || errH != nil {
					t.Fatalf("batch errors: single=%v sharded=%v", errS, errH)
				}
				if respS[0].Accepted != respH[0].Accepted {
					t.Fatalf("iter %d diverged: single=%v (%s) sharded=%v (%s)\npriority=%d preemptible=%v predicates: %v",
						it, respS[0].Accepted, respS[0].Reason, respH[0].Accepted, respH[0].Reason, prio, preemptible, preds)
				}
				if respS[0].Accepted {
					w.pairs = append(w.pairs, eqPair{client: client, singleID: respS[0].PromiseID, shardID: respH[0].PromiseID})
				}
				if w.rng.Intn(12) == 0 {
					w.advance()
				}
				if it%10 == 9 {
					w.verify()
				}
			}
			w.verify()
		})
	}
}
