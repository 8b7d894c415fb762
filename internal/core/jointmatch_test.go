package core

import (
	"reflect"
	"testing"

	"repro/internal/predicate"
	"repro/internal/resource"
)

// TestSolveJointRoamScopes pins the shared joint matcher's placement rules
// at (node, shard) granularity: a non-migratable slot never leaves its
// exact home, a Migratable one roams only its node, a CrossNode one roams
// everywhere, first-fit walks candidates in node, shard, id order, and a
// duplicated instance id belongs to whichever node exported it first.
func TestSolveJointRoamScopes(t *testing.T) {
	twin := map[string]predicate.Value{"beds": predicate.Str("twin")}
	sea := map[string]predicate.Value{"beds": predicate.Str("twin"), "view": predicate.Str("sea")}
	cand := func(node string, shard int, id string, tentative bool, props map[string]predicate.Value) JointCand {
		status := resource.Available
		if tentative {
			status = resource.Promised
		}
		return JointCand{
			PropertyCandidate: PropertyCandidate{Instance: &resource.Instance{ID: id, Status: status, Props: props}, Tentative: tentative},
			Node:              node,
			Shard:             shard,
		}
	}
	// slot is an existing twin-bed hold at (n0, 0) backed by the sea-view
	// room "home".
	slot := func(migratable, crossNode bool) JointSlot {
		return JointSlot{
			PropertySlot: PropertySlot{Key: "prm0-1#0", Expr: MustProperty(`beds = "twin"`).Expr, Assigned: "home", Migratable: migratable},
			Node:         "n0",
			CrossNode:    crossNode,
		}
	}
	seaView := MustProperty(`view = "sea"`)
	twinBed := MustProperty(`beds = "twin"`)

	cases := []struct {
		name    string
		slots   []JointSlot
		cands   []JointCand
		preds   []Predicate
		mode    PropertyMode
		ok      bool
		realloc map[string][]FedRealloc
		moves   []JointMove
		pinned  map[string][]FedPinned
	}{
		{
			name:  "non-migratable slot stays on its own node and shard",
			slots: []JointSlot{slot(false, false)},
			cands: []JointCand{cand("n0", 0, "home", true, sea), cand("n0", 1, "other-shard", false, twin), cand("n1", 0, "other-node", false, twin)},
			preds: []Predicate{seaView},
			ok:    false,
		},
		{
			name:  "non-migratable slot re-backs in place",
			slots: []JointSlot{slot(false, false)},
			cands: []JointCand{cand("n0", 0, "home", true, sea), cand("n0", 1, "other-shard", false, twin), cand("n0", 0, "same-shard", false, twin)},
			preds: []Predicate{seaView},
			ok:    true,
			realloc: map[string][]FedRealloc{
				"n0": {{Slot: "prm0-1#0", Instance: "same-shard"}},
			},
			pinned: map[string][]FedPinned{"n0": {{Predicate: seaView, PredIdx: 3, Instance: "home"}}},
		},
		{
			name:  "migratable slot moves within its node only",
			slots: []JointSlot{slot(true, false)},
			cands: []JointCand{cand("n0", 0, "home", true, sea), cand("n1", 0, "other-node", false, twin), cand("n0", 2, "other-shard", false, twin)},
			preds: []Predicate{seaView},
			ok:    true,
			realloc: map[string][]FedRealloc{
				"n0": {{Slot: "prm0-1#0", Instance: "other-shard"}},
			},
			pinned: map[string][]FedPinned{"n0": {{Predicate: seaView, PredIdx: 3, Instance: "home"}}},
		},
		{
			name:  "migratable slot cannot leave its node",
			slots: []JointSlot{slot(true, false)},
			cands: []JointCand{cand("n0", 0, "home", true, sea), cand("n1", 0, "other-node", false, twin)},
			preds: []Predicate{seaView},
			ok:    false,
		},
		{
			name:   "cross-node slot moves to another node",
			slots:  []JointSlot{slot(true, true)},
			cands:  []JointCand{cand("n0", 0, "home", true, sea), cand("n1", 0, "other-node", false, twin)},
			preds:  []Predicate{seaView},
			ok:     true,
			moves:  []JointMove{{Slot: 0, To: "n1", Instance: "other-node"}},
			pinned: map[string][]FedPinned{"n0": {{Predicate: seaView, PredIdx: 3, Instance: "home"}}},
		},
		{
			name: "first-fit takes the first free instance in node, shard, id order",
			cands: []JointCand{
				cand("n1", 0, "a", false, twin),
				cand("n0", 1, "b", false, twin),
				cand("n0", 0, "z", false, twin),
				cand("n0", 0, "c", true, twin),
				cand("n0", 0, "y", false, twin),
			},
			preds:  []Predicate{twinBed},
			mode:   FirstFitMode,
			ok:     true,
			pinned: map[string][]FedPinned{"n0": {{Predicate: twinBed, PredIdx: 3, Instance: "y"}}},
		},
		{
			name:   "the first node to export an instance id wins it",
			cands:  []JointCand{cand("n1", 0, "dup", false, sea), cand("n0", 0, "dup", false, sea)},
			preds:  []Predicate{seaView},
			ok:     true,
			pinned: map[string][]FedPinned{"n1": {{Predicate: seaView, PredIdx: 3, Instance: "dup"}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, ok := SolveJoint(tc.slots, tc.cands, tc.preds, []int{3}, tc.mode)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if len(plan.Realloc) > 0 || len(tc.realloc) > 0 {
				if !reflect.DeepEqual(plan.Realloc, tc.realloc) {
					t.Errorf("realloc = %+v, want %+v", plan.Realloc, tc.realloc)
				}
			}
			if !reflect.DeepEqual(plan.Moves, tc.moves) {
				t.Errorf("moves = %+v, want %+v", plan.Moves, tc.moves)
			}
			if !reflect.DeepEqual(plan.Pinned, tc.pinned) {
				t.Errorf("pinned = %+v, want %+v", plan.Pinned, tc.pinned)
			}
		})
	}
}
