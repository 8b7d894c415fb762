package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/predicate"
	"repro/internal/resource"
)

// TestMatcherStateInvalidation pins the persistent matcher state against
// its one real hazard: edge caches outliving the instance they were
// computed from. An application action mutates instance properties in its
// own transaction; the commit hook must refresh the candidate entry and
// drop its cached edges, so the next property grant re-evaluates against
// the new properties in both directions — a stale satisfied edge must not
// admit a request the instance no longer satisfies, and a stale failed
// edge must not reject one it now does.
func TestMatcherStateInvalidation(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, _ := newShardedT(t, ShardedConfig{Shards: shards, Config: Config{DefaultDuration: time.Hour}})
			a := nameOnShard(t, s, 0, "inv-a")
			b := nameOnShard(t, s, 1, "inv-b")
			for _, id := range []string{a, b} {
				if err := s.CreateInstance(id, map[string]predicate.Value{"tier": predicate.Int(1)}); err != nil {
					t.Fatal(err)
				}
			}
			setTier := func(id string, tier int64) {
				t.Helper()
				resp, err := s.Execute(bg, Request{
					Client:    "admin",
					Resources: []string{id},
					Action: func(ac *ActionContext) (any, error) {
						in, err := ac.Resources.Instance(ac.Tx, id)
						if err != nil {
							return nil, err
						}
						up := &resource.Instance{ID: in.ID, Status: in.Status,
							Props: map[string]predicate.Value{"tier": predicate.Int(tier)}}
						return nil, ac.Resources.PutInstance(ac.Tx, up)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if resp.ActionErr != nil {
					t.Fatal(resp.ActionErr)
				}
			}

			// Warm the matcher: both instances get tier=1 edges evaluated
			// and cached while satisfying these grants.
			g1 := grantQty(t, s, "holder", MustProperty("tier = 1"))
			g2 := grantQty(t, s, "holder", MustProperty("tier = 1"))
			if !g1.Accepted || !g2.Accepted {
				t.Fatalf("warm-up grants rejected: %s / %s", g1.Reason, g2.Reason)
			}
			if err := s.Release(bg, "holder", g1.PromiseID, g2.PromiseID); err != nil {
				t.Fatal(err)
			}

			// Stale satisfied edge: with both instances mutated away from
			// tier=1, the warm edges must not admit another tier=1 grant.
			setTier(a, 2)
			setTier(b, 2)
			if pr := grantQty(t, s, "c", MustProperty("tier = 1")); pr.Accepted {
				t.Fatal("grant satisfied only by stale pre-mutation properties was accepted")
			}

			// Stale failed edge: the rejection above evaluated (and cached)
			// tier=1 edges as unsatisfied; flipping one instance back must
			// make the same request grantable again.
			setTier(a, 1)
			pr := grantQty(t, s, "c", MustProperty("tier = 1"))
			if !pr.Accepted {
				t.Fatalf("grant rejected off a stale failed edge: %s", pr.Reason)
			}
			// And the capacity arithmetic still holds: only one tier=1
			// instance exists now, so a second concurrent hold must reject.
			if pr2 := grantQty(t, s, "d", MustProperty("tier = 1")); pr2.Accepted {
				t.Fatal("second tier=1 grant accepted with one satisfying instance")
			}
			mustHealthy(t, s)
		})
	}
}

// TestIndexMayNestedShapes unit-tests the per-value index's conservative
// predicate oracle on the nested shapes the pre-filter and the fast-path
// adjacency lists rely on: Not over In, and disjunctions of conjunctions.
// may=false must imply no hostable instance can satisfy the expression;
// ok=false means the shape is not indexable and the caller must scan.
func TestIndexMayNestedShapes(t *testing.T) {
	byProp := map[string]map[predicate.Value]int{
		"tier": {predicate.Int(1): 2, predicate.Int(2): 1},
		"gpu":  {predicate.Bool(true): 1, predicate.Bool(false): 2},
	}
	cases := []struct {
		src     string
		may, ok bool
	}{
		// Not(In): exact — satisfiable iff some indexed value falls
		// outside the set; a property nothing hosts can never satisfy.
		{"not (tier in (1, 2))", false, true},
		{"not (tier in (2, 3))", true, true},
		{"not (zone in (1, 2))", false, true},
		{"not (id in (\"x\", \"y\"))", true, false},
		// Not(In) under Or, both orders.
		{"gpu or not (tier in (1, 2))", true, true},
		{"not (tier in (1, 2)) or not (tier in (1, 3))", true, true},
		{"not (tier in (1, 2)) or not (tier in (2, 1))", false, true},
		// Or-of-And: a definite no requires every branch definitely dead;
		// any live branch answers "may".
		{"(gpu and tier = 1) or (not gpu and tier = 2)", true, true},
		{"(tier = 3 and gpu) or (tier = 4 and not gpu)", false, true},
		{"(tier = 3 and gpu) or tier = 2", true, true},
		{"(tier = 1 and zone = 9) or tier = 3", false, true},
		// An unresolvable conjunct (the id builtin) leaves the And — and
		// so the Or — unresolvable unless another branch answers yes.
		{"(tier = 1 and id = \"x\") or tier = 3", true, false},
		{"(tier = 1 and id = \"x\") or tier = 2", true, true},
	}
	for _, c := range cases {
		e, err := predicate.Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		may, ok := indexMay(e, byProp)
		if may != c.may || ok != c.ok {
			t.Errorf("indexMay(%q) = (may=%v, ok=%v), want (may=%v, ok=%v)", c.src, may, ok, c.may, c.ok)
		}
	}
}
