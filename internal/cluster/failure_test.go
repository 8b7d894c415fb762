package cluster_test

import (
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

// A node that applies a confirm and then dies before replying leaves the
// engine unable to tell whether the parts committed. The grant must fail,
// the ambiguity must be queued, and after the node is remediated Reconcile
// must resolve it to exactly zero holds — never a silent double-hold.
func TestCrashMidConfirmResolvesExactlyOnce(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	pa := nameOwnedBy(t, sim.Ring(), "n0", "pool")
	pb := nameOwnedBy(t, sim.Ring(), "n2", "pool")
	for _, p := range []string{pa, pb} {
		if err := sim.CreatePool(p, 4, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Confirms run ascending by node id, so n0 goes first: it applies the
	// confirm, then the reply is lost.
	sim.Node("n0").Port().FailNext("FedConfirm", simulator.FailAfter, 1)
	_, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pa, 4), core.Quantity(pb, 4)},
		Duration:   time.Hour,
	}})
	if err == nil {
		t.Fatal("grant succeeded though a confirm reply was lost")
	}
	if got := eng.PendingCompensations(); got == 0 {
		t.Fatal("lost confirm reply queued no compensation")
	}

	// The node then crashes outright; reconciliation cannot reach it yet.
	sim.Node("n0").Port().Crash()
	if err := eng.Reconcile(bg); err == nil {
		t.Fatal("Reconcile reported success while the ambiguous node is down")
	}
	if got := eng.PendingCompensations(); got == 0 {
		t.Fatal("compensation dropped while its node was unreachable")
	}

	// Remediation: the node restarts with its committed state, Reconcile
	// releases whatever the lost confirm left behind.
	sim.Node("n0").Port().Restart()
	if err := eng.Reconcile(bg); err != nil {
		t.Fatalf("Reconcile after restart: %v", err)
	}
	if got := eng.PendingCompensations(); got != 0 {
		t.Fatalf("%d compensations still pending after Reconcile", got)
	}

	// Exactly once: the failed grant holds nothing anywhere, so the full
	// capacity of both pools is grantable again.
	resps, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pa, 4), core.Quantity(pb, 4)},
		Duration:   time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].Accepted {
		t.Fatalf("full-capacity grant rejected after remediation: %s", resps[0].Reason)
	}
	rep, err := eng.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("cluster unhealthy after remediation: %v", rep.Problems)
	}
}

// A partition that strikes between the first and second reserve must leave
// no reservation behind on the nodes that did answer.
func TestPartitionDuringReserveAbortsEverywhere(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	pa := nameOwnedBy(t, sim.Ring(), "n0", "pool")
	pb := nameOwnedBy(t, sim.Ring(), "n2", "pool")
	for _, p := range []string{pa, pb} {
		if err := sim.CreatePool(p, 4, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Reserves run ascending, so n0 reserves first; n2's reserve then
	// never arrives.
	sim.Node("n2").Port().FailNext("FedReserve", simulator.FailBefore, 1)
	_, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pa, 4), core.Quantity(pb, 4)},
		Duration:   time.Hour,
	}})
	if err == nil {
		t.Fatal("grant succeeded though one reserve was partitioned away")
	}
	if got := sim.Node("n0").Port().Calls("FedAbort"); got == 0 {
		t.Fatal("n0's reservation was never aborted")
	}
	if got := eng.PendingCompensations(); got != 0 {
		t.Fatalf("a clean abort queued %d compensations; nothing committed", got)
	}

	// Nothing may remain reserved: both pools grant at full capacity.
	resps, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pa, 4), core.Quantity(pb, 4)},
		Duration:   time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].Accepted {
		t.Fatalf("full-capacity grant rejected after aborted reserve: %s", resps[0].Reason)
	}
}

// The coordinator drains a slow node: the held promise migrates to a ring
// successor with its id and expiry intact, the engine's Watch stream
// reports the move without breaking, and the promise stays checkable the
// whole time.
func TestCoordinatorDrainPreservesHeldPromise(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	// One matching instance per node: wherever the grant lands, the other
	// instance is the drain's landing zone.
	instA := nameOwnedBy(t, sim.Ring(), "n0", "inst")
	instB := nameOwnedBy(t, sim.Ring(), "n1", "inst")
	props := map[string]predicate.Value{"beds": predicate.Str("twin")}
	for _, in := range []string{instA, instB} {
		if err := sim.CreateInstance(in, props); err != nil {
			t.Fatal(err)
		}
	}

	resps, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.MustProperty(`beds = "twin"`)},
		Duration:   24 * time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	pr := resps[0]
	if !pr.Accepted {
		t.Fatalf("grant rejected: %s", pr.Reason)
	}
	holder, _, _ := strings.Cut(pr.PromiseID, "!")

	events, err := eng.Watch(bg, core.WatchOptions{Types: []core.EventType{core.EventMigrated}})
	if err != nil {
		t.Fatal(err)
	}

	coord, err := sim.Coordinator(cluster.CoordinatorConfig{SlowThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The holding node turns slow: its canary blows the 250ms budget.
	sim.Node(holder).Port().SetCanaryLatency(time.Second)
	coord.Tick(bg)
	coord.Tick(bg)

	st := coord.Status()
	var holderState cluster.NodeState
	for _, n := range st.Nodes {
		if n.ID == holder {
			holderState = n.State
		}
	}
	if holderState != cluster.StateDraining {
		t.Fatalf("slow node %s in state %s, want draining", holder, holderState)
	}
	if len(st.Migrations) != 1 {
		t.Fatalf("drain recorded %d migrations, want 1: %+v", len(st.Migrations), st.Migrations)
	}
	mig := st.Migrations[0]
	if mig.Promise != pr.PromiseID || mig.From != holder {
		t.Fatalf("migration %+v does not match promise %s on %s", mig, pr.PromiseID, holder)
	}

	// The Watch stream survives the migration and reports it.
	select {
	case ev := <-events:
		if ev.Type != core.EventMigrated {
			t.Fatalf("event type %s, want %s", ev.Type, core.EventMigrated)
		}
		if ev.Seq == 0 {
			t.Fatal("migrated event carries no cluster sequence")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no migrated event on the engine's Watch stream")
	}

	// Same id, still usable, expiry preserved across the move.
	verdicts, err := eng.CheckBatch(bg, "alice", []string{pr.PromiseID})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0] != nil {
		t.Fatalf("migrated promise not usable: %v", verdicts[0])
	}
	// Expiry preserved exactly: alive one second before the granted
	// expiry, gone one second after.
	sim.Advance(pr.Expires.Sub(sim.Clock().Now()) - time.Second)
	verdicts, _ = eng.CheckBatch(bg, "alice", []string{pr.PromiseID})
	if verdicts[0] != nil {
		t.Fatalf("migrated promise expired early: %v", verdicts[0])
	}
	sim.Advance(2 * time.Second)
	verdicts, _ = eng.CheckBatch(bg, "alice", []string{pr.PromiseID})
	if verdicts[0] == nil {
		t.Fatal("migrated promise alive past its granted expiry")
	}

	// The node speeds up again and is re-admitted.
	sim.Node(holder).Port().SetCanaryLatency(time.Millisecond)
	coord.Tick(bg)
	for _, n := range coord.Status().Nodes {
		if n.ID == holder && n.State != cluster.StateHealthy {
			t.Fatalf("fast-again node %s stuck in %s", holder, n.State)
		}
	}
}

// The ping half of the health machine: healthy -> suspect -> down after
// FailThreshold consecutive misses, healthy again the moment a ping lands.
func TestCoordinatorPingStateMachine(t *testing.T) {
	sim, _ := newSim(t, core.MatchingMode)
	coord, err := sim.Coordinator(cluster.CoordinatorConfig{FailThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	state := func(id string) cluster.NodeState {
		t.Helper()
		for _, n := range coord.Status().Nodes {
			if n.ID == id {
				return n.State
			}
		}
		t.Fatalf("node %s missing from status", id)
		return ""
	}

	coord.Tick(bg)
	if got := state("n1"); got != cluster.StateHealthy {
		t.Fatalf("fresh node state %s, want healthy", got)
	}

	sim.Node("n1").Port().Partition(true)
	coord.Tick(bg)
	if got := state("n1"); got != cluster.StateSuspect {
		t.Fatalf("after 1 missed ping: %s, want suspect", got)
	}
	coord.Tick(bg)
	if got := state("n1"); got != cluster.StateSuspect {
		t.Fatalf("after 2 missed pings: %s, want suspect", got)
	}
	coord.Tick(bg)
	if got := state("n1"); got != cluster.StateDown {
		t.Fatalf("after 3 missed pings: %s, want down", got)
	}

	sim.Node("n1").Port().Partition(false)
	coord.Tick(bg)
	if got := state("n1"); got != cluster.StateHealthy {
		t.Fatalf("healed node state %s, want healthy", got)
	}
}

// A high-priority federated grant that displaces a spot hold on one node,
// whose confirm applies there but the reply is lost and the node then
// crashes, must resolve exactly-once: the failed grant ends up holding
// nothing, the spot victim is displaced exactly once (one preempted event),
// and after remediation the full capacity is grantable again.
func TestPreemptionRacingCrashResolvesExactlyOnce(t *testing.T) {
	sim, eng := newSim(t, core.MatchingMode)
	pa := nameOwnedBy(t, sim.Ring(), "n0", "pool")
	pb := nameOwnedBy(t, sim.Ring(), "n2", "pool")
	for _, p := range []string{pa, pb} {
		if err := sim.CreatePool(p, 4, nil); err != nil {
			t.Fatal(err)
		}
	}

	// A spot workload holds all of pa.
	resps, err := eng.GrantBatch(bg, "spot", []core.PromiseRequest{{
		Predicates:  []core.Predicate{core.Quantity(pa, 4)},
		Duration:    2 * time.Hour,
		Preemptible: true,
	}})
	if err != nil || !resps[0].Accepted {
		t.Fatalf("spot grant: %v %+v", err, resps)
	}
	spotID := resps[0].PromiseID

	events, err := eng.Watch(bg, core.WatchOptions{Types: []core.EventType{core.EventPreempted}})
	if err != nil {
		t.Fatal(err)
	}

	// The on-demand grant spans both nodes, so it takes the federated path;
	// its reserve on n0 displaces the spot hold. Confirms run ascending, so
	// n0 applies first — victim revoked, part granted — and the reply is
	// lost; the node then crashes before remediation can reach it.
	sim.Node("n0").Port().FailNext("FedConfirm", simulator.FailAfter, 1)
	_, err = eng.GrantBatch(bg, "ondemand", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pa, 4), core.Quantity(pb, 4)},
		Duration:   time.Hour,
		Priority:   1,
	}})
	if err == nil {
		t.Fatal("preempting grant succeeded though its confirm reply was lost")
	}
	if got := eng.PendingCompensations(); got == 0 {
		t.Fatal("lost confirm reply queued no compensation")
	}
	sim.Node("n0").Port().Crash()
	if err := eng.Reconcile(bg); err == nil {
		t.Fatal("Reconcile reported success while the ambiguous node is down")
	}

	// Remediation: the node restarts with its committed state (the victim's
	// revocation and the orphaned part both committed with the confirm) and
	// Reconcile releases the part the failed grant left behind.
	sim.Node("n0").Port().Restart()
	if err := eng.Reconcile(bg); err != nil {
		t.Fatalf("Reconcile after restart: %v", err)
	}
	if got := eng.PendingCompensations(); got != 0 {
		t.Fatalf("%d compensations still pending after Reconcile", got)
	}

	// The victim was displaced exactly once: its verdict is preempted, and
	// exactly one preempted event crossed the cluster Watch stream.
	verdicts, err := eng.CheckBatch(bg, "spot", []string{spotID})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verdicts[0], core.ErrPromisePreempted) {
		t.Fatalf("spot verdict = %v, want preempted", verdicts[0])
	}
	select {
	case ev := <-events:
		if ev.Type != core.EventPreempted || ev.PromiseID != spotID {
			t.Fatalf("event %+v, want preempted %s", ev, spotID)
		}
		if ev.By == "" || ev.Priority != 1 {
			t.Fatalf("preempted event By=%q Priority=%d, want displacing part id and tier 1", ev.By, ev.Priority)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no preempted event on the cluster Watch stream")
	}
	select {
	case ev := <-events:
		t.Fatalf("duplicate preempted event: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	// Exactly once, capacity-wise: the failed grant holds nothing, so the
	// full capacity of both pools is grantable again.
	resps, err = eng.GrantBatch(bg, "carol", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pa, 4), core.Quantity(pb, 4)},
		Duration:   time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].Accepted {
		t.Fatalf("full-capacity grant rejected after remediation: %s", resps[0].Reason)
	}
	rep, err := eng.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("cluster unhealthy after remediation: %v", rep.Problems)
	}
}

// With ReconcileEvery set, queued compensations drain on the clock alarm
// cadence without any explicit Reconcile call, and Close stops the loop.
func TestBackgroundReconcileLoopDrainsQueue(t *testing.T) {
	sim, err := simulator.New(simulator.Config{Nodes: []string{"n0", "n1", "n2"}, Mode: core.MatchingMode})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.New(cluster.Config{
		Ports:          sim.Ports(),
		Clock:          sim.Clock(),
		Mode:           core.MatchingMode,
		ReconcileEvery: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pa := nameOwnedBy(t, sim.Ring(), "n0", "pool")
	pb := nameOwnedBy(t, sim.Ring(), "n2", "pool")
	for _, p := range []string{pa, pb} {
		if err := sim.CreatePool(p, 4, nil); err != nil {
			t.Fatal(err)
		}
	}

	sim.Node("n0").Port().FailNext("FedConfirm", simulator.FailAfter, 1)
	if _, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pa, 4), core.Quantity(pb, 4)},
		Duration:   time.Hour,
	}}); err == nil {
		t.Fatal("grant succeeded though a confirm reply was lost")
	}
	if got := eng.PendingCompensations(); got == 0 {
		t.Fatal("lost confirm reply queued no compensation")
	}

	// Short of the cadence nothing fires; crossing it drains the queue.
	sim.Advance(30 * time.Second)
	if got := eng.PendingCompensations(); got == 0 {
		t.Fatal("reconcile loop fired before its cadence")
	}
	sim.Advance(30 * time.Second)
	if got := eng.PendingCompensations(); got != 0 {
		t.Fatalf("%d compensations still pending after the reconcile alarm", got)
	}

	// The loop re-arms: a second round drains on the next alarm too.
	sim.Node("n0").Port().FailNext("FedConfirm", simulator.FailAfter, 1)
	if _, err := eng.GrantBatch(bg, "bob", []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pa, 4), core.Quantity(pb, 4)},
		Duration:   time.Hour,
	}}); err == nil {
		t.Fatal("second grant succeeded though a confirm reply was lost")
	}
	if got := eng.PendingCompensations(); got == 0 {
		t.Fatal("second lost reply queued no compensation")
	}
	sim.Advance(time.Minute)
	if got := eng.PendingCompensations(); got != 0 {
		t.Fatalf("%d compensations still pending after the second alarm", got)
	}
}

// A slot that moves to another node keeps its tier and spot flag, whether
// the coordinator drains its node or a joint match displaces it: a
// preemptible hold must stay preemptible at its new home.
func TestCrossNodeMigrationKeepsTierAndSpotFlag(t *testing.T) {
	// setup grants one priority-1 preemptible twin-bed hold on a cluster
	// with one twin room on n0 and one on n1, and returns the grant plus
	// the node and room backing it.
	setup := func(t *testing.T) (*simulator.Cluster, *cluster.Engine, core.PromiseResponse, string, string) {
		sim, eng := newSim(t, core.MatchingMode)
		for _, node := range []string{"n0", "n1"} {
			in := nameOwnedBy(t, sim.Ring(), node, "room")
			if err := sim.CreateInstance(in, map[string]predicate.Value{
				"beds": predicate.Str("twin"),
				"room": predicate.Str(in),
			}); err != nil {
				t.Fatal(err)
			}
		}
		resps, err := eng.GrantBatch(bg, "alice", []core.PromiseRequest{{
			Predicates:  []core.Predicate{core.MustProperty(`beds = "twin"`)},
			Duration:    time.Hour,
			Priority:    1,
			Preemptible: true,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !resps[0].Accepted {
			t.Fatalf("hold rejected: %s", resps[0].Reason)
		}
		holder, _, _ := strings.Cut(resps[0].PromiseID, "!")
		p, err := sim.Node(holder).Manager().PromiseInfo(resps[0].PromiseID)
		if err != nil {
			t.Fatal(err)
		}
		return sim, eng, resps[0], holder, p.Assigned[0]
	}
	// landed finds the hold on a node other than from and checks that it
	// kept its tier and spot flag.
	landed := func(t *testing.T, sim *simulator.Cluster, id, from string) {
		for _, node := range []string{"n0", "n1", "n2"} {
			if node == from {
				continue
			}
			p, err := sim.Node(node).Manager().PromiseInfo(id)
			if err != nil {
				continue
			}
			if p.Priority != 1 || !p.Preemptible {
				t.Fatalf("hold %s on %s has priority %d, preemptible %v; want 1, true", id, node, p.Priority, p.Preemptible)
			}
			return
		}
		t.Fatalf("hold %s did not move off %s", id, from)
	}

	t.Run("drain", func(t *testing.T) {
		sim, _, hold, holder, _ := setup(t)
		coord, err := sim.Coordinator(cluster.CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		stranded, err := coord.Drain(bg, holder)
		if err != nil || stranded != 0 {
			t.Fatalf("drain of %s: stranded %d, err %v", holder, stranded, err)
		}
		landed(t, sim, hold.PromiseID, holder)
	})

	t.Run("displace", func(t *testing.T) {
		sim, eng, hold, holder, room := setup(t)
		// A single room held on n1 gives both twin rooms' nodes a slot, so
		// neither node's pre-filter prunes its twin room by value.
		single := nameOwnedBy(t, sim.Ring(), "n1", "single")
		if err := sim.CreateInstance(single, map[string]predicate.Value{"beds": predicate.Str("single")}); err != nil {
			t.Fatal(err)
		}
		resps, err := eng.GrantBatch(bg, "carol", []core.PromiseRequest{{
			Predicates: []core.Predicate{core.MustProperty(`beds = "single"`)},
			Duration:   time.Hour,
		}})
		if err != nil || !resps[0].Accepted {
			t.Fatalf("single-room hold: %+v, %v", resps, err)
		}
		// Only the hold's own room satisfies the new request, so the joint
		// match must move the hold to the other node's twin room.
		resps, err = eng.GrantBatch(bg, "bob", []core.PromiseRequest{{
			Predicates: []core.Predicate{core.MustProperty(fmt.Sprintf(`room = %q`, room))},
			Duration:   time.Hour,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !resps[0].Accepted {
			t.Fatalf("displacing grant rejected: %s", resps[0].Reason)
		}
		landed(t, sim, hold.PromiseID, holder)
	})
}
