package core

import (
	"slices"
	"sort"

	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/resource"
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
// displace) pay for path searches. matching.SolveSeeded evaluates edges on
// demand over per-vertex candidate lists that are built on first use: a
// slot scans only the candidates its pass lets it reach, and a shard that
// supplied its persistent matcher image (propmatch.go) narrows that to the
// instances its per-value index serves. Image slots also arrive with their
// predicates compiled, so a grant that escalates to the joint match
// recompiles nothing and allocates no slots × candidates table.

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
// the outstanding slots. Every candidate is scanned; the grant session's
// solve also hands over each shard's matcher image (solveJoint).
func SolveJoint(slots []JointSlot, cands []JointCand, preds []Predicate, predIdx []int, mode PropertyMode) (plan *JointPlan, ok bool) {
	return solveJoint(slots, cands, nil, preds, predIdx, mode)
}

// jointPlace is a slot's or candidate's (node, shard) home.
type jointPlace struct {
	node  string
	shard int
}

// solveJoint is SolveJoint with optional per-placement matcher images. An
// image must mirror exactly the candidates its placement contributes (a
// reservation that has written nothing; see Reservation.PropertyContext),
// because its index narrows which of them a left vertex scans.
func solveJoint(slots []JointSlot, cands []JointCand, images map[jointPlace]*propMatcher, preds []Predicate, predIdx []int, mode PropertyMode) (plan *JointPlan, ok bool) {
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
	// predicate is compiled once (propmatch.go) — or arrives compiled
	// from a shard's image — so the common shapes evaluate straight off
	// the property map.
	nExist := len(slots)
	nLeft := nExist + len(preds)
	exprs := make([]predicate.Expr, nLeft)
	compiled := make([]compiledPred, nLeft)
	for i := range slots {
		exprs[i] = slots[i].Expr
		if compiled[i] = slots[i].compiled; compiled[i] == nil {
			compiled[i] = compilePred(slots[i].Expr)
		}
	}
	for k, p := range preds {
		if p.View != NamedView {
			exprs[nExist+k] = p.Expr
			compiled[nExist+k] = compilePred(p.Expr)
		}
	}
	edge := func(l, r int) bool {
		inst := cands[r].Instance
		if compiled[l] == nil {
			return inst.ID == preds[l-nExist].Instance
		}
		return compiled[l](inst)
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

	// Group the right side by placement, in candidate order.
	var places []jointPlace
	placeOf := make([]int, len(cands)) // right index -> index in places
	var byPlace [][]int
	for r := range cands {
		p := jointPlace{cands[r].Node, cands[r].Shard}
		pi := len(places) - 1
		if pi < 0 || places[pi] != p {
			pi = slices.Index(places, p)
		}
		if pi < 0 {
			pi = len(places)
			places = append(places, p)
			byPlace = append(byPlace, nil)
		}
		placeOf[r] = pi
		byPlace[pi] = append(byPlace[pi], r)
	}
	// A pass's scope says which placements an existing slot may land on;
	// new predicates may land anywhere.
	type scope func(l int, p jointPlace) bool
	home := func(l int, p jointPlace) bool {
		return p.node == slots[l].Node && p.shard == slots[l].Shard
	}
	// roam is pass 2's scope: migratable slots roam their node, cross-node
	// slots roam everywhere.
	roam := func(l int, p jointPlace) bool {
		sl := &slots[l]
		switch {
		case !sl.Migratable:
			return home(l, p)
		case !sl.CrossNode:
			return p.node == sl.Node
		}
		return true
	}
	admits := func(in scope, l, r int) bool {
		return l >= nExist || in(l, places[placeOf[r]])
	}
	// reach lists the right vertices left vertex l may scan in a pass,
	// ascending (the scan order of an unindexed solve; sorting also keeps
	// index-served lists deterministic, since the index is a map).
	reach := func(in scope, l int) []int {
		if compiled[l] == nil {
			if r, ok := candIdx[preds[l-nExist].Instance]; ok {
				return []int{r}
			}
			return []int{}
		}
		out := []int{}
		for pi, p := range places {
			if l < nExist && !in(l, p) {
				continue
			}
			if pm := images[p]; pm != nil {
				if set, ok := pm.indexCandidates(exprs[l]); ok {
					for id := range set {
						if r, ok := candIdx[id]; ok && placeOf[r] == pi {
							out = append(out, r)
						}
					}
					continue
				}
			}
			out = append(out, byPlace[pi]...)
		}
		if !sort.IntsAreSorted(out) {
			sort.Ints(out)
		}
		return out
	}
	// adjOf memoizes reach for one pass, built on first use: a seeded
	// solve visits only the new predicates and the slots their augmenting
	// paths displace.
	adjOf := func(in scope) func(l int) []int {
		lists := make([][]int, nLeft)
		return func(l int) []int {
			if lists[l] == nil {
				lists[l] = reach(in, l)
			}
			return lists[l]
		}
	}
	// The seeds are checked against the edge oracle, so it repeats each
	// pass's placement rule.
	edgeIn := func(in scope) func(l, r int) bool {
		return func(l, r int) bool { return admits(in, l, r) && edge(l, r) }
	}

	seed := make([]int, nLeft)
	for i := range seed {
		seed[i] = matching.Unmatched
	}
	for i := range slots {
		if j, ok := candIdx[slots[i].Assigned]; ok && slots[i].Assigned != "" {
			seed[i] = j
		}
	}

	// Pass 1: existing slots pinned to their exact (node, shard) home.
	assign, ok := matching.SolveSeeded(nLeft, len(cands), edgeIn(home), adjOf(home), seed)
	if !ok {
		// Pass 2: migratable slots roam their node, cross-node slots roam
		// everywhere.
		if assign, ok = matching.SolveSeeded(nLeft, len(cands), edgeIn(roam), adjOf(roam), seed); !ok {
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

// lazyMatch solves one store's property-view assignment problem: every
// slot (exprs) must land on a distinct candidate that satisfies it. It is
// seeded from initial (instance id per slot, "" for unassigned); seeds
// that are not candidates or no longer satisfy their predicate count as
// unassigned. Edges are evaluated on demand, so a grant that finds the
// existing assignment intact pays only for the new slots' augmenting
// paths. It returns the instance id per slot and whether every slot was
// saturated.
func lazyMatch(exprs []predicate.Expr, cands []*resource.Instance, initial []string) ([]string, bool) {
	compiled := make([]compiledPred, len(exprs))
	for i, e := range exprs {
		compiled[i] = compilePred(e)
	}
	idxOf := make(map[string]int, len(cands))
	for j, in := range cands {
		idxOf[in.ID] = j
	}
	seed := make([]int, len(initial))
	for i, inst := range initial {
		seed[i] = matching.Unmatched
		if j, ok := idxOf[inst]; ok && inst != "" {
			seed[i] = j
		}
	}
	edge := func(i, j int) bool { return compiled[i](cands[j]) }
	assign, ok := matching.SolveSeeded(len(exprs), len(cands), edge, nil, seed)
	if !ok {
		return nil, false
	}
	out := make([]string, len(assign))
	for i, j := range assign {
		out[i] = cands[j].ID
	}
	return out, true
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
