package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/simulator"
	"repro/internal/core"
	"repro/internal/predicate"
)

var bg = context.Background()

// newSim builds a 3-node simulated cluster and its federated engine.
func newSim(t *testing.T, mode core.PropertyMode) (*simulator.Cluster, *cluster.Engine) {
	t.Helper()
	return newSimShards(t, mode, 0)
}

// newSimShards is newSim with an explicit per-node shard count (0 keeps
// the simulator's default).
func newSimShards(t *testing.T, mode core.PropertyMode, shards int) (*simulator.Cluster, *cluster.Engine) {
	t.Helper()
	sim, err := simulator.New(simulator.Config{Nodes: []string{"n0", "n1", "n2"}, Mode: mode, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.Engine(mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return sim, eng
}

// nameOwnedBy finds a resource name the ring assigns to the wanted node.
func nameOwnedBy(t *testing.T, r *cluster.Ring, node, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if r.Owner(name) == node {
			return name
		}
	}
	t.Fatalf("no %s-* name owned by %s in 10000 tries", prefix, node)
	return ""
}

// The acceptance pin: a grant whose resources live on one node forwards to
// that node in a single round trip — no federation verbs, no traffic to
// any other node, no coordinator anywhere in the path.
func TestSinglePoolGrantBypassesFederation(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	pool := nameOwnedBy(t, sim.Ring(), "n1", "pool")
	if err := sim.CreatePool(pool, 10, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := eng.Execute(bg, core.Request{
		Client: "alice",
		PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Quantity(pool, 3)},
			Duration:   time.Minute,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		t.Fatalf("rejected: %s", pr.Reason)
	}
	if !strings.HasPrefix(pr.PromiseID, "n1!") {
		t.Fatalf("promise id %q not namespaced to the owning node", pr.PromiseID)
	}

	for _, id := range []string{"n0", "n1", "n2"} {
		p := sim.Node(id).Port()
		wantExec := 0
		if id == "n1" {
			wantExec = 1
		}
		if got := p.Calls("Execute"); got != wantExec {
			t.Errorf("node %s saw %d Execute calls, want %d", id, got, wantExec)
		}
		for _, op := range []string{"FedReserve", "FedConfirm", "FedAbort", "FedSummary"} {
			if got := p.Calls(op); got != 0 {
				t.Errorf("node %s saw %d %s calls on a single-pool grant, want 0", id, got, op)
			}
		}
	}
}

// A grant spanning pools on two nodes runs the two-phase path and yields a
// cluster composite that checks and releases like any promise.
func TestCrossNodeCompositeGrant(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	pa := nameOwnedBy(t, sim.Ring(), "n0", "pool")
	pb := nameOwnedBy(t, sim.Ring(), "n2", "pool")
	for _, p := range []string{pa, pb} {
		if err := sim.CreatePool(p, 5, nil); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := eng.Execute(bg, core.Request{
		Client: "alice",
		PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Quantity(pa, 2), core.Quantity(pb, 3)},
			Duration:   time.Minute,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		t.Fatalf("rejected: %s", pr.Reason)
	}
	if !strings.HasPrefix(pr.PromiseID, cluster.CompositePrefix) {
		t.Fatalf("cross-node grant id %q is not a cluster composite", pr.PromiseID)
	}

	verdicts, err := eng.CheckBatch(bg, "alice", []string{pr.PromiseID})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0] != nil {
		t.Fatalf("fresh composite not usable: %v", verdicts[0])
	}

	if err := eng.Release(bg, "alice", pr.PromiseID); err != nil {
		t.Fatalf("release composite: %v", err)
	}
	verdicts, err = eng.CheckBatch(bg, "alice", []string{pr.PromiseID})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verdicts[0], core.ErrPromiseReleased) && !errors.Is(verdicts[0], core.ErrPromiseNotFound) {
		t.Fatalf("released composite verdict = %v, want released/not-found", verdicts[0])
	}

	// Over-asking either pool now rejects, proving the release restored it.
	resp, err = eng.Execute(bg, core.Request{
		Client: "alice",
		PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Quantity(pa, 5), core.Quantity(pb, 5)},
			Duration:   time.Minute,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Promises[0].Accepted {
		t.Fatalf("full-capacity regrant rejected after release: %s", resp.Promises[0].Reason)
	}
}

// A property grant that can only be satisfied by displacing an earlier
// grant's slot to an instance on a different node must succeed: the joint
// match spans the cluster, and the displaced promise migrates with its id
// intact.
func TestFederatedPropertyGrantDisplacesAcrossNodes(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	// instA (node n0): red. instB (node n1): red AND big.
	instA := nameOwnedBy(t, sim.Ring(), "n0", "inst")
	instB := nameOwnedBy(t, sim.Ring(), "n1", "inst")
	if err := sim.CreateInstance(instA, map[string]predicate.Value{"color": predicate.Str("red")}); err != nil {
		t.Fatal(err)
	}
	if err := sim.CreateInstance(instB, map[string]predicate.Value{"color": predicate.Str("red"), "size": predicate.Str("big")}); err != nil {
		t.Fatal(err)
	}

	grant := func(expr string) core.PromiseResponse {
		t.Helper()
		resp, err := eng.Execute(bg, core.Request{
			Client: "alice",
			PromiseRequests: []core.PromiseRequest{{
				Predicates: []core.Predicate{core.MustProperty(expr)},
				Duration:   time.Hour,
			}},
		})
		if err != nil {
			t.Fatalf("grant %q: %v", expr, err)
		}
		return resp.Promises[0]
	}

	red := grant(`color = "red"`)
	if !red.Accepted {
		t.Fatalf("red grant rejected: %s", red.Reason)
	}
	big := grant(`size = "big"`)
	if !big.Accepted {
		t.Fatalf("big grant rejected: %s (the red slot should displace to the other node)", big.Reason)
	}

	verdicts, err := eng.CheckBatch(bg, "alice", []string{red.PromiseID, big.PromiseID})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if v != nil {
			t.Errorf("promise %d not usable after displacement: %v", i, v)
		}
	}

	// Both instances are now pinned; a third selective grant must reject
	// with the joint-unsatisfiability reason, exactly as a single store
	// would.
	again := grant(`size = "big"`)
	if again.Accepted {
		t.Fatal("third grant accepted though both instances are held")
	}
}

// Watch fans in every node's stream with a cluster-level total order.
func TestWatchFanInAcrossNodes(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	pa := nameOwnedBy(t, sim.Ring(), "n0", "pool")
	pb := nameOwnedBy(t, sim.Ring(), "n2", "pool")
	for _, p := range []string{pa, pb} {
		if err := sim.CreatePool(p, 5, nil); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	events, err := eng.Watch(ctx, core.WatchOptions{Types: []core.EventType{core.EventGranted}})
	if err != nil {
		t.Fatal(err)
	}

	for _, pool := range []string{pa, pb} {
		resp, err := eng.Execute(bg, core.Request{
			Client: "alice",
			PromiseRequests: []core.PromiseRequest{{
				Predicates: []core.Predicate{core.Quantity(pool, 1)},
				Duration:   time.Minute,
			}},
		})
		if err != nil || !resp.Promises[0].Accepted {
			t.Fatalf("grant on %s: %v %+v", pool, err, resp)
		}
	}

	var seqs []uint64
	nodesSeen := map[string]bool{}
	for len(seqs) < 2 {
		select {
		case ev := <-events:
			seqs = append(seqs, ev.Seq)
			nodesSeen[strings.SplitN(ev.PromiseID, "!", 2)[0]] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("saw %d granted events, want 2", len(seqs))
		}
	}
	if !(seqs[0] < seqs[1]) {
		t.Fatalf("fan-in sequence not strictly increasing: %v", seqs)
	}
	if len(nodesSeen) != 2 {
		t.Fatalf("events came from nodes %v, want both n0 and n2", nodesSeen)
	}
}

// Stats sums every node's counters.
func TestStatsAggregation(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	pool := nameOwnedBy(t, sim.Ring(), "n0", "pool")
	if err := sim.CreatePool(pool, 10, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Quantity(pool, 1)},
			Duration:   time.Minute,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.Grants != 3 {
		t.Fatalf("cluster Stats.Grants = %d, want 3", st.Grants)
	}
}

// Audit merges every node's report with node-prefixed problems.
func TestAuditAggregation(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	pool := nameOwnedBy(t, sim.Ring(), "n1", "pool")
	if err := sim.CreatePool(pool, 10, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pool, 1)},
		Duration:   time.Minute,
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("fresh cluster unhealthy: %v", rep.Problems)
	}
	if rep.ActivePromises != 1 {
		t.Fatalf("merged ActivePromises = %d, want 1", rep.ActivePromises)
	}
}
