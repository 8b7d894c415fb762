// Package preemption implements victim selection for priority-tiered,
// preemptible ("spot") promises. When the normal planner finds no feasible
// assignment for a request, the engine gathers the active promises the
// request is allowed to displace — strictly lower priority AND marked
// preemptible — and asks Select for a victim set whose revocation makes the
// request feasible.
//
// The selection contract, shared by every engine shape so one-shard,
// many-shard and clustered engines displace the same holds for the same
// workload:
//
//   - Cost is the victim count, and the returned set is inclusion-minimal:
//     no victim can be dropped without losing feasibility. (Exact
//     count-minimality is subset-sum-hard in general; for the common case —
//     uniform holds on one pool, or single-slot property holders — the
//     greedy below is exactly count-minimal.)
//   - Ties break oldest-deadline-first: among candidates that serve equally,
//     the promise closest to lapsing anyway loses first.
//   - Selection is a pure function of the candidates' engine-independent
//     identity (deadline, client, predicate signature), never of engine-local
//     promise ids, so engines that shard the same world differently agree.
//
// The algorithm is oracle-driven: callers supply feasible, typically a trial
// run of their planner with the proposed victims treated as releases, and
// Select never mutates anything — the caller applies the final set through
// its normal revocation path.
package preemption

import (
	"sort"
	"time"
)

// Candidate is one active promise eligible for displacement, described by
// engine-independent identity. The caller has already applied the
// eligibility rule (Preemptible && Priority < request's Priority) and
// excluded the request's own release targets.
type Candidate struct {
	// ID is the engine-local promise id — opaque to selection (never
	// compared across engines), used only by the caller to apply the
	// result and as a last-resort total-order tie-break within one engine.
	ID string
	// Priority is the candidate's tier.
	Priority int
	// Expires is the candidate's deadline; oldest first loses first.
	Expires time.Time
	// Client owns the candidate.
	Client string
	// Sig is a stable signature of the candidate's predicates (canonical
	// source text), the engine-independent identity used to break
	// deadline/client ties deterministically.
	Sig string
}

// less is the canonical victim order: oldest deadline, then lowest
// priority (a tier-0 hold loses before a tier-3 hold with the same
// deadline), then client, signature and id for a total order.
func less(a, b Candidate) bool {
	if !a.Expires.Equal(b.Expires) {
		return a.Expires.Before(b.Expires)
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	if a.Client != b.Client {
		return a.Client < b.Client
	}
	if a.Sig != b.Sig {
		return a.Sig < b.Sig
	}
	return a.ID < b.ID
}

// Sort orders cands canonically in place.
func Sort(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool { return less(cands[i], cands[j]) })
}

// Select returns an inclusion-minimal victim set drawn from cands for which
// feasible reports true, or nil when no subset (up to the whole candidate
// list) restores feasibility. cands is reordered in place (canonically).
//
// Two passes, both deterministic:
//
//  1. Grow: candidates are taken in canonical order (oldest deadline first)
//     until the oracle accepts — the accepted prefix may contain candidates
//     that contribute nothing (they happened to sort early).
//  2. Prune: walk the accepted set newest-first, dropping every candidate
//     whose removal keeps the oracle satisfied. Newest-first removal keeps
//     the surviving victims skewed toward the oldest deadlines, matching
//     the tie-break rule, and yields an inclusion-minimal set.
//
// The oracle must be monotone (a superset of a feasible set is feasible),
// which holds for any "revoking more frees more" planner. Select calls it
// O(len(cands)) times and never with an empty set.
func Select(cands []Candidate, feasible func([]Candidate) (bool, error)) ([]Candidate, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	Sort(cands)
	chosen := -1
	for k := 1; k <= len(cands); k++ {
		ok, err := feasible(cands[:k])
		if err != nil {
			return nil, err
		}
		if ok {
			chosen = k
			break
		}
	}
	if chosen < 0 {
		return nil, nil
	}
	set := append([]Candidate(nil), cands[:chosen]...)
	for i := len(set) - 1; i >= 0; i-- {
		if len(set) == 1 {
			break // the oracle rejected the empty prefix implicitly (k starts at 1)
		}
		trial := make([]Candidate, 0, len(set)-1)
		trial = append(trial, set[:i]...)
		trial = append(trial, set[i+1:]...)
		ok, err := feasible(trial)
		if err != nil {
			return nil, err
		}
		if ok {
			set = trial
		}
	}
	return set, nil
}
