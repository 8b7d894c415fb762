package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/resource"
)

// buildRandom creates random slots (interval predicates over "x") and
// instances (random x values), returning the lazy matcher inputs plus an
// equivalent matching.Graph for cross-checking.
func buildRandom(r *rand.Rand) ([]predicate.Expr, []*resource.Instance, *matching.Graph) {
	nL := r.Intn(7)
	nR := r.Intn(7)
	exprs := make([]predicate.Expr, nL)
	for i := range exprs {
		lo := r.Intn(10)
		hi := lo + r.Intn(6)
		exprs[i] = predicate.MustParse(fmt.Sprintf("x >= %d and x <= %d", lo, hi))
	}
	cands := make([]*resource.Instance, nR)
	for j := range cands {
		cands[j] = &resource.Instance{
			ID:    fmt.Sprintf("inst-%d", j),
			Props: map[string]predicate.Value{"x": predicate.Int(int64(r.Intn(14)))},
		}
	}
	g := matching.NewGraph(nL, nR)
	for i := 0; i < nL; i++ {
		for j := 0; j < nR; j++ {
			ok, err := predicate.Eval(exprs[i], cands[j].Env())
			if err == nil && ok {
				g.AddEdge(i, j)
			}
		}
	}
	return exprs, cands, g
}

// TestQuickLazyMatcherAgreesWithHopcroftKarp: saturation decisions must
// coincide with the reference algorithm, from an empty seed.
func TestQuickLazyMatcherAgreesWithHopcroftKarp(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		exprs, cands, g := buildRandom(r)
		initial := make([]string, len(exprs))
		assign, ok := lazyMatch(exprs, cands, initial)
		_, hkOK := g.SaturatesLeft()
		if ok != hkOK {
			t.Logf("disagree: lazy=%v hk=%v (%dx%d)", ok, hkOK, len(exprs), len(cands))
			return false
		}
		if !ok {
			return true
		}
		// Assignment must be a valid saturating matching.
		used := make(map[string]bool)
		for i, inst := range assign {
			if used[inst] {
				t.Logf("instance %s used twice", inst)
				return false
			}
			used[inst] = true
			var cand *resource.Instance
			for _, c := range cands {
				if c.ID == inst {
					cand = c
					break
				}
			}
			if cand == nil {
				t.Logf("assigned unknown instance %s", inst)
				return false
			}
			sat, err := predicate.Eval(exprs[i], cand.Env())
			if err != nil || !sat {
				t.Logf("slot %d assigned non-satisfying instance %s", i, inst)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLazyMatcherSeededAgrees: seeding with an arbitrary valid partial
// matching must not change the saturation answer (augmenting-path theorem).
func TestQuickLazyMatcherSeededAgrees(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		exprs, cands, g := buildRandom(r)
		_, hkOK := g.SaturatesLeft()
		// Build a random valid partial seed greedily.
		initial := make([]string, len(exprs))
		used := make(map[int]bool)
		for i := range exprs {
			if r.Intn(2) == 0 {
				continue
			}
			for j := range cands {
				if used[j] {
					continue
				}
				ok, err := predicate.Eval(exprs[i], cands[j].Env())
				if err == nil && ok {
					initial[i] = cands[j].ID
					used[j] = true
					break
				}
			}
		}
		// Some seeds also point at garbage; solve must tolerate them.
		if len(exprs) > 0 && r.Intn(3) == 0 {
			initial[r.Intn(len(exprs))] = "no-such-instance"
		}
		_, ok := lazyMatch(exprs, cands, initial)
		if ok != hkOK {
			t.Logf("seeded disagree: lazy=%v hk=%v", ok, hkOK)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyMatcherEmpty(t *testing.T) {
	assign, ok := lazyMatch(nil, nil, nil)
	if !ok || len(assign) != 0 {
		t.Fatalf("empty solve = %v %v", assign, ok)
	}
	// Slots but no candidates: unsatisfiable.
	exprs := []predicate.Expr{predicate.MustParse("x >= 0")}
	if _, ok := lazyMatch(exprs, nil, []string{""}); ok {
		t.Fatal("saturated with no candidates")
	}
}

func TestLazyMatcherSeedConflict(t *testing.T) {
	// Two slots seeded with the same instance: the second seed must be
	// ignored and augmented instead.
	exprs := []predicate.Expr{predicate.MustParse("x >= 0"), predicate.MustParse("x >= 0")}
	cands := []*resource.Instance{
		{ID: "a", Props: map[string]predicate.Value{"x": predicate.Int(1)}},
		{ID: "b", Props: map[string]predicate.Value{"x": predicate.Int(2)}},
	}
	assign, ok := lazyMatch(exprs, cands, []string{"a", "a"})
	if !ok {
		t.Fatal("should saturate")
	}
	if assign[0] == assign[1] {
		t.Fatalf("duplicate assignment: %v", assign)
	}
}
