package core

import (
	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/resource"
)

// lazyMatcher solves the single-shard property-view assignment problem
// incrementally.
//
// A full Hopcroft–Karp run per grant (the obvious reading of §5's
// "satisfiability check") costs O(L·R) predicate evaluations just to build
// the bipartite graph, making grant latency quadratic in the number of
// outstanding property promises. But grants arrive one at a time, and the
// promise manager already stores a valid assignment for every existing slot
// (Promise.Assigned), so each grant only needs augmenting paths for the new
// (or invalidated) slots — with edges evaluated lazily, the common case
// touches O(R) predicates instead of O(L·R).
//
// The augmenting machinery lives in matching.Incremental (shared with the
// joint matcher in jointmatch.go); this adapter contributes the edge
// oracle — predicate evaluation against instance property environments —
// and the translation between instance ids and vertex indices.
type lazyMatcher struct {
	cands []*resource.Instance
	inc   *matching.Incremental
}

func newLazyMatcher(exprs []predicate.Expr, cands []*resource.Instance) *lazyMatcher {
	lm := &lazyMatcher{cands: cands}
	lm.inc = matching.NewIncremental(len(exprs), len(cands), func(i, j int) bool {
		// Evaluation errors (e.g. the predicate references a property the
		// instance lacks) mean "no edge".
		ok, err := predicate.Eval(exprs[i], cands[j].Env())
		return err == nil && ok
	})
	return lm
}

// solve computes an assignment saturating every slot, seeded from initial
// (instance id per slot, "" for unassigned). It returns the assigned
// instance ids and whether saturation succeeded. initial entries that are
// not valid candidates or no longer satisfy their predicate are treated as
// unassigned.
func (lm *lazyMatcher) solve(initial []string) ([]string, bool) {
	idxOf := make(map[string]int, len(lm.cands))
	for j, in := range lm.cands {
		idxOf[in.ID] = j
	}
	seed := make([]int, len(initial))
	for i, inst := range initial {
		seed[i] = matching.Unmatched
		if inst == "" {
			continue
		}
		if j, ok := idxOf[inst]; ok {
			seed[i] = j
		}
	}
	assign, ok := lm.inc.Solve(seed)
	if !ok {
		return nil, false
	}
	out := make([]string, len(assign))
	for i, j := range assign {
		out[i] = lm.cands[j].ID
	}
	return out, true
}
