package core

import (
	"repro/internal/matching"
	"repro/internal/predicate"
)

// This file is the coordinator-side half of cross-shard property matching.
// A property predicate can be satisfied by an instance on any shard, and
// admitting it may require rearranging the tentative allocations of
// promises that live on other shards (§5). The coordinator reads every
// involved shard's matching state through its open reservation and solves
// one joint bipartite problem:
//
//   - left vertices: every existing active property slot on every shard,
//     followed by the request's new property predicates and its deferred
//     named predicates (named predicates whose instance is tentatively
//     allocated to a property promise — granting them means displacing
//     that allocation, which is itself a global matching decision);
//   - right vertices: every candidate instance on every shard;
//   - edges: predicate satisfaction for property slots, identity for named
//     predicates.
//
// The solve runs in two passes. Pass 1 pins every existing slot to its own
// shard: when it saturates — the common case — no allocation crosses a
// shard boundary and the plan degenerates to per-shard reallocations.
// Pass 2 lets existing single-predicate slots roam: a slot whose best host
// now lives on another shard is re-homed there through the reservation
// pipeline (MigrateOut/MigrateIn), keeping its promise id, client and
// expiry. Pass 2 accepts exactly the set of requests a single store
// accepts, because with migration the shard boundaries stop constraining
// the matching at all.
//
// Both passes are seeded with the current assignments, so by the
// augmenting-path theorem only the new predicates (and any slots they
// displace) pay for path searches, and edges are evaluated lazily via
// matching.Incremental — the cross-shard generalisation of lazymatch.go.

// shardFloatPlan is one shard's slice of a solved global match: existing
// slots to move within the shard, plus new predicates to grant pinned to
// chosen instances (one single-predicate sub-promise each, so the slot
// stays migratable later).
type shardFloatPlan struct {
	realloc map[string]string
	preds   []Predicate
	predIdx []int
	assign  []string
}

// slotMigration re-homes one existing property sub-promise: its tag moves
// from inst on shard from to inst on shard to.
type slotMigration struct {
	promiseID string
	from, to  int
	inst      string
}

// floatPred is one new left vertex of the joint match: a property
// predicate free to land anywhere, or a deferred named predicate bound to
// exactly one instance.
type floatPred struct {
	idx   int // position in the original request
	named bool
}

// solveFloatAssignment solves the joint property match for the request's
// floating predicates over every reserved shard. It returns the per-shard
// plans plus any cross-shard migrations of existing slots, or ok=false
// when the predicates are not jointly satisfiable with the outstanding
// promises.
func (s *Manager) solveFloatAssignment(resvs map[int]*Reservation, pr PromiseRequest, floating []floatPred, mode PropertyMode) (map[int]*shardFloatPlan, []slotMigration, bool, error) {
	type gSlot struct {
		shard int
		slot  PropertySlot
	}
	type gCand struct {
		shard int
		cand  PropertyCandidate
	}
	var slots []gSlot
	var cands []gCand
	candIdx := make(map[string]int) // instance id -> right index (ids are globally unique)
	for _, sh := range sortedKeys(resvs) {
		ctx, err := resvs[sh].PropertyContext()
		if err != nil {
			return nil, nil, false, err
		}
		for _, sl := range ctx.Slots {
			slots = append(slots, gSlot{shard: sh, slot: sl})
		}
		for _, c := range ctx.Candidates {
			candIdx[c.Instance.ID] = len(cands)
			cands = append(cands, gCand{shard: sh, cand: c})
		}
	}

	plans := make(map[int]*shardFloatPlan)
	plan := func(sh int) *shardFloatPlan {
		p := plans[sh]
		if p == nil {
			p = &shardFloatPlan{realloc: make(map[string]string)}
			plans[sh] = p
		}
		return p
	}

	if mode == FirstFitMode {
		// Greedy ablation, mirroring the single-store first-fit: each new
		// predicate binds to the first free satisfying instance in shard
		// then id order, and existing allocations never move. Deferred
		// named predicates cannot occur (first-fit never displaces).
		used := make(map[int]bool)
		for _, f := range floating {
			found := -1
			for j, c := range cands {
				if used[j] || c.cand.Tentative {
					continue
				}
				ok, err := predicate.Eval(pr.Predicates[f.idx].Expr, c.cand.Instance.Env())
				if err != nil || !ok {
					continue
				}
				found = j
				break
			}
			if found < 0 {
				return nil, nil, false, nil
			}
			used[found] = true
			p := plan(cands[found].shard)
			p.preds = append(p.preds, pr.Predicates[f.idx])
			p.predIdx = append(p.predIdx, f.idx)
			p.assign = append(p.assign, cands[found].cand.Instance.ID)
		}
		return plans, nil, true, nil
	}

	// edge decides predicate satisfaction alone; the pass-specific oracles
	// add the shard constraint for existing slots. Each left vertex's
	// predicate is compiled once (propmatch.go) so the common shapes
	// evaluate straight off the property map; only shapes the compiler
	// refuses (references to the id/status builtins) pay for full Eval.
	nExist := len(slots)
	compiled := make([]compiledPred, nExist+len(floating))
	for i, sl := range slots {
		compiled[i] = compilePred(sl.slot.Expr)
	}
	for k, f := range floating {
		if !f.named {
			compiled[nExist+k] = compilePred(pr.Predicates[f.idx].Expr)
		}
	}
	edge := func(l, r int) bool {
		var expr predicate.Expr
		if l < nExist {
			expr = slots[l].slot.Expr
		} else {
			f := floating[l-nExist]
			if f.named {
				return cands[r].cand.Instance.ID == pr.Predicates[f.idx].Instance
			}
			expr = pr.Predicates[f.idx].Expr
		}
		if c := compiled[l]; c != nil {
			return c(cands[r].cand.Instance.Props)
		}
		ok, err := predicate.Eval(expr, cands[r].cand.Instance.Env())
		return err == nil && ok
	}
	seed := make([]int, nExist+len(floating))
	for i := range seed {
		seed[i] = matching.Unmatched
	}
	for i, sl := range slots {
		if j, ok := candIdx[sl.slot.Assigned]; ok && sl.slot.Assigned != "" {
			seed[i] = j
		}
	}

	// Pass 1: existing slots pinned to their own shard — no migrations.
	pinned := matching.NewIncremental(nExist+len(floating), len(cands), func(l, r int) bool {
		if l < nExist && slots[l].shard != cands[r].shard {
			return false
		}
		return edge(l, r)
	})
	assign, ok := pinned.Solve(seed)
	if !ok {
		// Pass 2: single-predicate slots may migrate between shards. This
		// is the exact single-store feasibility: shard boundaries no longer
		// constrain the match.
		free := matching.NewIncremental(nExist+len(floating), len(cands), func(l, r int) bool {
			if l < nExist && slots[l].shard != cands[r].shard && !slots[l].slot.Migratable {
				return false
			}
			return edge(l, r)
		})
		if assign, ok = free.Solve(seed); !ok {
			return nil, nil, false, nil
		}
	}

	var migs []slotMigration
	for i, sl := range slots {
		c := cands[assign[i]]
		newID := c.cand.Instance.ID
		if newID == sl.slot.Assigned {
			continue
		}
		if c.shard == sl.shard {
			plan(sl.shard).realloc[sl.slot.Key] = newID
			continue
		}
		pid, _, _ := parseSlotKey(sl.slot.Key)
		migs = append(migs, slotMigration{promiseID: pid, from: sl.shard, to: c.shard, inst: newID})
	}
	for k, f := range floating {
		c := cands[assign[nExist+k]]
		p := plan(c.shard)
		p.preds = append(p.preds, pr.Predicates[f.idx])
		p.predIdx = append(p.predIdx, f.idx)
		p.assign = append(p.assign, c.cand.Instance.ID)
	}
	return plans, migs, true, nil
}
