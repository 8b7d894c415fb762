package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/simulator"
	"repro/internal/core"
	"repro/internal/predicate"
)

// classify maps a check/release outcome to its sentinel class; reason
// strings and error text are presentation, not semantics.
func classify(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrPromiseNotFound):
		return "not-found"
	case errors.Is(err, core.ErrPromiseReleased):
		return "released"
	case errors.Is(err, core.ErrPromiseExpired):
		return "expired"
	case errors.Is(err, core.ErrPromisePreempted):
		return "preempted"
	default:
		return "other:" + err.Error()
	}
}

// pair tracks one logical promise granted to both systems under test.
type pair struct {
	cid, rid string   // cluster id / reference id
	parts    []string // the cluster id's node-namespaced parts
	dead     bool     // released (or modified away)
}

func partsOf(cid string) []string {
	if !strings.HasPrefix(cid, cluster.CompositePrefix) {
		return []string{cid}
	}
	return strings.Split(strings.TrimPrefix(cid, cluster.CompositePrefix), "+")
}

// onSurvivors reports whether every part of the pair lives outside the
// crashed node.
func (p *pair) onSurvivors(crashed string) bool {
	for _, part := range p.parts {
		if strings.HasPrefix(part, crashed+"!") {
			return false
		}
	}
	return true
}

// testShards returns the per-node shard count for the simulated cluster:
// the PROMISES_TEST_SHARDS environment variable when set (the CI matrix
// plumbs {1, 8} through it), else def.
func testShards(def int) int {
	if v := os.Getenv("PROMISES_TEST_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestClusterEquivalenceRandom drives an identical randomized workload
// through a simulated 3-node federation (PROMISES_TEST_SHARDS shards per
// node, default 4) and through a one-shard core.Manager — the single
// store — on the same fake clock, and requires them to agree on every
// observable:
// accept/reject of each grant, the sentinel class of every check and
// release, pool levels, and audit health. Midway one node is killed —
// with a confirm reply lost in flight — and later remediated; after
// Reconcile the two systems must agree again on everything, including the
// promises that rode out the outage on the dead node.
func TestClusterEquivalenceRandom(t *testing.T) {
	for _, seed := range []int64{7, 21, 99} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { runEquivalence(t, seed) })
	}
}

func runEquivalence(t *testing.T, seed int64) {
	const (
		crashNode  = "n1"
		crashRound = 40
		healRound  = 80
		rounds     = 120
	)
	sim, eng := newSimShards(t, core.MatchingMode, testShards(4))
	ref, err := core.New(core.Config{
		Shards:       1,
		Clock:        sim.Clock(),
		PropertyMode: core.MatchingMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Resources: four pools and three property instances per node, mirrored
	// into the reference store.
	poolsBy := map[string][]string{}
	for i := 0; len(poolsBy["n0"]) < 4 || len(poolsBy["n1"]) < 4 || len(poolsBy["n2"]) < 4; i++ {
		name := fmt.Sprintf("pool-%d", i)
		own := sim.Ring().Owner(name)
		if len(poolsBy[own]) >= 4 {
			continue
		}
		poolsBy[own] = append(poolsBy[own], name)
		if err := sim.CreatePool(name, 6, nil); err != nil {
			t.Fatal(err)
		}
		if err := ref.CreatePool(name, 6, nil); err != nil {
			t.Fatal(err)
		}
	}
	var pools, survivorPools []string
	for n, ps := range poolsBy {
		pools = append(pools, ps...)
		if n != crashNode {
			survivorPools = append(survivorPools, ps...)
		}
	}
	propSets := []map[string]predicate.Value{
		{"color": predicate.Str("red")},
		{"color": predicate.Str("blue")},
		{"color": predicate.Str("red"), "size": predicate.Str("big")},
		{"size": predicate.Str("small")},
	}
	instBy := map[string]int{}
	for i, made := 0, 0; instBy["n0"] < 3 || instBy["n1"] < 3 || instBy["n2"] < 3; i++ {
		name := fmt.Sprintf("inst-%d", i)
		own := sim.Ring().Owner(name)
		if instBy[own] >= 3 {
			continue
		}
		instBy[own]++
		props := propSets[made%len(propSets)]
		made++
		if err := sim.CreateInstance(name, props); err != nil {
			t.Fatal(err)
		}
		if err := ref.CreateInstance(name, props); err != nil {
			t.Fatal(err)
		}
	}
	// Dedicated pools for the crash drill: the workload never touches
	// them, so the drill's cross-node grant always reaches its confirm
	// phase regardless of how the random workload loaded the shared pools.
	// The reference never needs them — the drill's grant must end up
	// holding nothing.
	crashA := nameOwnedBy(t, sim.Ring(), "n0", "cpool")
	crashB := nameOwnedBy(t, sim.Ring(), crashNode, "cpool")
	for _, p := range []string{crashA, crashB} {
		if err := sim.CreatePool(p, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	exprs := []string{`color = "red"`, `color = "blue"`, `size = "big"`, `size = "small"`}
	durs := []time.Duration{2 * time.Minute, 5 * time.Minute, 8 * time.Minute}

	rnd := rand.New(rand.NewSource(seed))
	var pairs []*pair
	outage := false

	// uniqueDur hands every preemptible hold a distinct deadline (kept under
	// the managers' default MaxDuration cap). When deadlines tie, victim
	// ordering falls through to engine-local promise ids, which the cluster
	// and the reference assign differently — a harness artifact, not an
	// engine property, so the workload avoids it.
	durSeq := 0
	uniqueDur := func() time.Duration {
		durSeq++
		return 5*time.Minute + time.Duration(durSeq)*time.Millisecond
	}

	// grantBoth runs one request through both systems and records the pair
	// when both accept; accept/reject must agree.
	grantBoth := func(round int, req core.PromiseRequest, refReq core.PromiseRequest) {
		t.Helper()
		cr, cerr := eng.GrantBatch(bg, "alice", []core.PromiseRequest{req})
		if cerr != nil {
			t.Fatalf("round %d: cluster grant error: %v", round, cerr)
		}
		rr, rerr := ref.GrantBatch(bg, "alice", []core.PromiseRequest{refReq})
		if rerr != nil {
			t.Fatalf("round %d: reference grant error: %v", round, rerr)
		}
		if cr[0].Accepted != rr[0].Accepted {
			t.Fatalf("round %d: accept divergence: cluster=%v (%s) reference=%v (%s) req=%+v",
				round, cr[0].Accepted, cr[0].Reason, rr[0].Accepted, rr[0].Reason, req)
		}
		if cr[0].Accepted {
			pairs = append(pairs, &pair{cid: cr[0].PromiseID, rid: rr[0].PromiseID, parts: partsOf(cr[0].PromiseID)})
		}
	}
	// usable picks a random pair the current phase may touch.
	usable := func(liveOnly bool) *pair {
		idx := rnd.Perm(len(pairs))
		for _, i := range idx {
			p := pairs[i]
			if liveOnly && p.dead {
				continue
			}
			if outage && !p.onSurvivors(crashNode) {
				continue
			}
			return p
		}
		return nil
	}

	for round := 0; round < rounds; round++ {
		if round == crashRound {
			// Kill the node with a confirm reply in flight: the cluster
			// must queue the ambiguity and carry it until remediation. The
			// reference never sees this request — the cluster errored, so
			// equivalence demands it ultimately holds nothing from it.
			sim.Node(crashNode).Port().FailNext("FedConfirm", simulator.FailAfter, 1)
			_, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
				Predicates: []core.Predicate{
					core.Quantity(crashA, 2),
					core.Quantity(crashB, 2),
				},
				Duration: durs[2],
			}})
			if err == nil {
				t.Fatalf("round %d: grant with lost confirm reply reported success", round)
			}
			if eng.PendingCompensations() == 0 {
				t.Fatalf("round %d: lost confirm queued no compensation", round)
			}
			sim.Node(crashNode).Port().Crash()
			outage = true
		}
		if round == healRound {
			sim.Node(crashNode).Port().Restart()
			if err := eng.Reconcile(bg); err != nil {
				t.Fatalf("round %d: Reconcile after restart: %v", round, err)
			}
			if n := eng.PendingCompensations(); n != 0 {
				t.Fatalf("round %d: %d compensations left after Reconcile", round, n)
			}
			outage = false
		}

		switch op := rnd.Intn(100); {
		case op < 40: // quantity grant, possibly cross-node, mixed tiers
			avail := pools
			if outage {
				avail = survivorPools
			}
			prio, preemptible := 0, false
			switch rnd.Intn(6) {
			case 0, 1:
				preemptible = true
			case 2:
				preemptible, prio = true, 1
			case 3:
				prio = 1 + rnd.Intn(2)
			}
			n := 1 + rnd.Intn(2)
			if preemptible {
				// Single-predicate spot holds: a cross-node hold becomes a
				// composite on the cluster but one promise on the reference,
				// and composite victims have no counterpart to agree with.
				n = 1
			}
			picked := rnd.Perm(len(avail))[:n]
			var preds []core.Predicate
			for _, i := range picked {
				preds = append(preds, core.Quantity(avail[i], int64(1+rnd.Intn(3))))
			}
			dur := durs[rnd.Intn(len(durs))]
			if preemptible {
				dur = uniqueDur()
			}
			req := core.PromiseRequest{Predicates: preds, Duration: dur, Priority: prio, Preemptible: preemptible}
			grantBoth(round, req, req)
		case op < 55: // property grant (cluster-wide matching)
			if outage {
				continue
			}
			req := core.PromiseRequest{
				Predicates: []core.Predicate{core.MustProperty(exprs[rnd.Intn(len(exprs))])},
				Duration:   durs[rnd.Intn(len(durs))],
			}
			grantBoth(round, req, req)
		case op < 63: // modify: atomic release-and-regrant
			if outage {
				continue
			}
			p := usable(true)
			if p == nil {
				continue
			}
			pool := pools[rnd.Intn(len(pools))]
			req := core.PromiseRequest{
				Predicates: []core.Predicate{core.Quantity(pool, int64(1+rnd.Intn(2)))},
				Duration:   durs[rnd.Intn(len(durs))],
				Releases:   []string{p.cid},
			}
			refReq := req
			refReq.Releases = []string{p.rid}
			before := len(pairs)
			grantBoth(round, req, refReq)
			if len(pairs) > before { // accepted: the old promise is gone
				p.dead = true
			}
		case op < 80: // release
			p := usable(true)
			if p == nil {
				continue
			}
			cerr := eng.Release(bg, "alice", p.cid)
			rerr := ref.Release(bg, "alice", p.rid)
			if classify(cerr) != classify(rerr) {
				t.Fatalf("round %d: release divergence on %s/%s: cluster=%v reference=%v",
					round, p.cid, p.rid, cerr, rerr)
			}
			p.dead = true
		case op < 95: // check
			p := usable(false)
			if p == nil {
				continue
			}
			cv, cerr := eng.CheckBatch(bg, "alice", []string{p.cid})
			if cerr != nil {
				t.Fatalf("round %d: cluster check error: %v", round, cerr)
			}
			rv, rerr := ref.CheckBatch(bg, "alice", []string{p.rid})
			if rerr != nil {
				t.Fatalf("round %d: reference check error: %v", round, rerr)
			}
			if classify(cv[0]) != classify(rv[0]) {
				t.Fatalf("round %d: check divergence on %s/%s: cluster=%v reference=%v",
					round, p.cid, p.rid, cv[0], rv[0])
			}
		default: // time passes; promises expire identically on both sides
			sim.Advance(time.Duration(30+rnd.Intn(90)) * time.Second)
		}
	}

	// Final sweep: every promise ever granted classifies identically, every
	// pool level matches, both stores audit clean.
	for _, p := range pairs {
		cv, cerr := eng.CheckBatch(bg, "alice", []string{p.cid})
		if cerr != nil {
			t.Fatalf("final check on %s: %v", p.cid, cerr)
		}
		rv, rerr := ref.CheckBatch(bg, "alice", []string{p.rid})
		if rerr != nil {
			t.Fatalf("final check on %s: %v", p.rid, rerr)
		}
		if classify(cv[0]) != classify(rv[0]) {
			t.Fatalf("final divergence on %s/%s: cluster=%v reference=%v", p.cid, p.rid, cv[0], rv[0])
		}
	}
	for _, pool := range pools {
		cl, err := sim.PoolLevel(pool)
		if err != nil {
			t.Fatalf("cluster PoolLevel(%s): %v", pool, err)
		}
		rl, err := ref.PoolLevel(pool)
		if err != nil {
			t.Fatalf("reference PoolLevel(%s): %v", pool, err)
		}
		if cl != rl {
			t.Fatalf("pool %s level divergence: cluster=%d reference=%d", pool, cl, rl)
		}
	}
	crep, err := eng.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Healthy() {
		t.Fatalf("cluster audit unhealthy: %v", crep.Problems)
	}
	rrep, err := ref.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Healthy() {
		t.Fatalf("reference audit unhealthy: %v", rrep.Problems)
	}
	if len(pairs) < 20 {
		t.Fatalf("workload only produced %d accepted grants; the suite is not exercising enough", len(pairs))
	}
}
