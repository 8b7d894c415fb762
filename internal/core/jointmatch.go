package core

import (
	"sort"

	"repro/internal/matching"
	"repro/internal/predicate"
)

// This file is the joint property matcher shared by the cross-shard grant
// session (session.go) and the cluster coordinator (cluster.Engine). A
// property predicate can be satisfied by an instance on any shard of any
// node, and admitting it may require rearranging the tentative allocations
// of promises that live elsewhere (§5). The caller reads every involved
// participant's matching state and solves one bipartite problem:
//
//   - left vertices: every existing active property slot, followed by the
//     request's new property predicates and its deferred named predicates
//     (named predicates whose instance is tentatively allocated to a
//     property promise — granting them means displacing that allocation,
//     which is itself a joint matching decision);
//   - right vertices: every candidate instance;
//   - edges: predicate satisfaction for property slots, identity for named
//     predicates.
//
// Work is placed by a (node, shard) pair; the in-process engine is the
// single node "". The solve runs in two passes. Pass 1 pins every existing
// slot to its exact (node, shard) home: when it saturates — the common
// case — nothing crosses a boundary and the plan degenerates to
// reallocations in place plus pinned grants. Pass 2 relaxes by
// migratability: a Migratable slot (a sole-predicate property sub-promise)
// may re-home to any shard of its own node, and a CrossNode slot to any
// node, keeping its promise id, client and expiry. With every slot free to
// roam the boundaries stop constraining the match, so pass 2 accepts
// exactly the requests a single store accepts.
//
// Both passes are seeded with the current assignments, so by the
// augmenting-path theorem only the new predicates (and any slots they
// displace) pay for path searches, and edges are evaluated lazily via
// matching.Incremental.

// JointSlot is one existing property slot: a left vertex of the joint
// match.
type JointSlot struct {
	PropertySlot
	// Node and Shard are the slot's home; pass 1 pins it there.
	Node  string
	Shard int
	// CrossNode lets a Migratable slot leave its node in pass 2.
	CrossNode bool
}

// JointCand is one candidate instance: a right vertex of the joint match.
// Instance ids are globally unique; when two entries share one, the first
// wins.
type JointCand struct {
	PropertyCandidate
	Node  string
	Shard int
}

// JointMove re-homes an existing slot onto an instance of another node.
type JointMove struct {
	// Slot indexes the slots passed to SolveJoint.
	Slot     int
	To       string
	Instance string
}

// JointPlan is a solved joint match, split by node into the pieces of a
// FedConfirmSpec. Realloc re-backs slots with another instance of the
// same node (the node turns a cross-shard entry into an internal
// migration itself); Moves cross nodes; Pinned grants the new predicates.
type JointPlan struct {
	Realloc map[string][]FedRealloc
	Moves   []JointMove
	Pinned  map[string][]FedPinned
}

// SolveJoint solves the joint property match. preds are the new left
// vertices — property predicates float, named predicates bind to exactly
// their instance — and predIdx gives each one's position in the original
// request. In FirstFitMode existing slots never move and each new
// predicate takes the first free satisfying instance in node, shard, id
// order. ok is false when the predicates are not jointly satisfiable with
// the outstanding slots.
func SolveJoint(slots []JointSlot, cands []JointCand, preds []Predicate, predIdx []int, mode PropertyMode) (plan *JointPlan, ok bool) {
	candIdx := make(map[string]int, len(cands)) // instance id -> right index
	var kept []JointCand                        // cands without duplicates, once one is seen
	for i := range cands {
		id := cands[i].Instance.ID
		if _, dup := candIdx[id]; dup {
			if kept == nil {
				kept = append(make([]JointCand, 0, len(cands)), cands[:i]...)
			}
			continue
		}
		if kept == nil {
			candIdx[id] = i
			continue
		}
		candIdx[id] = len(kept)
		kept = append(kept, cands[i])
	}
	if kept != nil {
		cands = kept
	}

	// edge decides predicate satisfaction alone; the passes add the
	// placement constraints for existing slots. Each left vertex's
	// predicate is compiled once (propmatch.go) so the common shapes
	// evaluate straight off the property map; only shapes the compiler
	// refuses (references to the id/status builtins) pay for full Eval.
	nExist := len(slots)
	exprs := make([]predicate.Expr, nExist+len(preds))
	compiled := make([]compiledPred, nExist+len(preds))
	for i := range slots {
		exprs[i] = slots[i].Expr
	}
	for k, p := range preds {
		if p.View != NamedView {
			exprs[nExist+k] = p.Expr
		}
	}
	for l, e := range exprs {
		if e != nil {
			compiled[l] = compilePred(e)
		}
	}
	edge := func(l, r int) bool {
		inst := cands[r].Instance
		if exprs[l] == nil {
			return inst.ID == preds[l-nExist].Instance
		}
		if c := compiled[l]; c != nil {
			return c(inst.Props)
		}
		ok, err := predicate.Eval(exprs[l], inst.Env())
		return err == nil && ok
	}

	plan = &JointPlan{Realloc: make(map[string][]FedRealloc), Pinned: make(map[string][]FedPinned)}
	pin := func(k, r int) {
		c := &cands[r]
		plan.Pinned[c.Node] = append(plan.Pinned[c.Node], FedPinned{Predicate: preds[k], PredIdx: predIdx[k], Instance: c.Instance.ID})
	}

	if mode == FirstFitMode {
		// Greedy ablation, mirroring the single-store first-fit. Deferred
		// named predicates cannot occur: first-fit never displaces.
		order := make([]int, len(cands))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ca, cb := &cands[order[a]], &cands[order[b]]
			if ca.Node != cb.Node {
				return ca.Node < cb.Node
			}
			if ca.Shard != cb.Shard {
				return ca.Shard < cb.Shard
			}
			return ca.Instance.ID < cb.Instance.ID
		})
		used := make([]bool, len(cands))
		for k := range preds {
			found := -1
			for _, r := range order {
				if !used[r] && !cands[r].Tentative && edge(nExist+k, r) {
					found = r
					break
				}
			}
			if found < 0 {
				return nil, false
			}
			used[found] = true
			pin(k, found)
		}
		return plan, true
	}

	seed := make([]int, nExist+len(preds))
	for i := range seed {
		seed[i] = matching.Unmatched
	}
	for i := range slots {
		if j, ok := candIdx[slots[i].Assigned]; ok && slots[i].Assigned != "" {
			seed[i] = j
		}
	}
	home := func(l, r int) bool {
		return slots[l].Node == cands[r].Node && slots[l].Shard == cands[r].Shard
	}

	// Pass 1: existing slots pinned to their exact (node, shard) home.
	pinned := matching.NewIncremental(nExist+len(preds), len(cands), func(l, r int) bool {
		if l < nExist && !home(l, r) {
			return false
		}
		return edge(l, r)
	})
	assign, ok := pinned.Solve(seed)
	if !ok {
		// Pass 2: migratable slots roam their node, cross-node slots roam
		// everywhere.
		free := matching.NewIncremental(nExist+len(preds), len(cands), func(l, r int) bool {
			if l < nExist {
				sl := &slots[l]
				switch {
				case !sl.Migratable:
					if !home(l, r) {
						return false
					}
				case !sl.CrossNode:
					if sl.Node != cands[r].Node {
						return false
					}
				}
			}
			return edge(l, r)
		})
		if assign, ok = free.Solve(seed); !ok {
			return nil, false
		}
	}

	for i := range slots {
		sl, c := &slots[i], &cands[assign[i]]
		if c.Instance.ID == sl.Assigned {
			continue
		}
		if c.Node == sl.Node {
			plan.Realloc[sl.Node] = append(plan.Realloc[sl.Node], FedRealloc{Slot: sl.Key, Instance: c.Instance.ID})
			continue
		}
		plan.Moves = append(plan.Moves, JointMove{Slot: i, To: c.Node, Instance: c.Instance.ID})
	}
	for k := range preds {
		pin(k, assign[nExist+k])
	}
	return plan, true
}

// slotMigration re-homes one existing property sub-promise between this
// node's shards: its tag moves from inst on shard from to inst on shard to.
type slotMigration struct {
	promiseID string
	from, to  int
	inst      string
}

// floatPred is one new left vertex of the joint match: a property
// predicate free to land anywhere, or a deferred named predicate bound to
// exactly one instance.
type floatPred struct {
	idx   int // position in the request's predicate list
	named bool
}
