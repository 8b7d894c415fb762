package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardedStressConservation hammers one ShardedManager from many
// goroutines across multiple resource pools and asserts the paper's
// conservation invariants at the end: escrow reservations never exceeded
// capacity (no over-grant), every consumed unit is accounted for in the
// final pool levels, no holds leaked, and the full audit is healthy.
// Run under -race: this is the test that guards the sharding protocol.
func TestShardedStressConservation(t *testing.T) {
	const (
		workers  = 8
		iters    = 150
		numPools = 6
		perPool  = 1 << 20
	)
	s, err := NewSharded(ShardedConfig{Shards: testShards(4), Config: Config{Clock: nil, DefaultDuration: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	pools := make([]string, numPools)
	for i := range pools {
		pools[i] = fmt.Sprintf("pool-%d", i)
		if err := s.CreatePool(pools[i], perPool, nil); err != nil {
			t.Fatal(err)
		}
	}
	var consumed [numPools]atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			client := fmt.Sprintf("worker-%d", w)
			for it := 0; it < iters; it++ {
				switch rng.Intn(3) {
				case 0:
					// Multi-pool (usually cross-shard) grant, then release
					// the composite.
					i := rng.Intn(numPools)
					j := (i + 1 + rng.Intn(numPools-1)) % numPools
					q1, q2 := int64(1+rng.Intn(3)), int64(1+rng.Intn(3))
					resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
						Predicates: []Predicate{Quantity(pools[i], q1), Quantity(pools[j], q2)},
					}}})
					if err != nil {
						t.Error(err)
						return
					}
					pr := resp.Promises[0]
					if !pr.Accepted {
						t.Errorf("grant rejected with ample capacity: %s", pr.Reason)
						return
					}
					if _, err := s.Execute(bg, Request{Client: client, Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					// Single-pool grant, then consume under the promise:
					// the action draws down the pool atomically with the
					// release (§4, second requirement).
					i := rng.Intn(numPools)
					q := int64(1 + rng.Intn(3))
					resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
						Predicates: []Predicate{Quantity(pools[i], q)},
					}}})
					if err != nil {
						t.Error(err)
						return
					}
					pr := resp.Promises[0]
					if !pr.Accepted {
						t.Errorf("grant rejected with ample capacity: %s", pr.Reason)
						return
					}
					pool := pools[i]
					out, err := s.Execute(bg, Request{
						Client:    client,
						Env:       []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
						Resources: []string{pool},
						Action: func(ac *ActionContext) (any, error) {
							return ac.Resources.AdjustPool(ac.Tx, pool, -q)
						},
					})
					if err != nil {
						t.Error(err)
						return
					}
					if out.ActionErr != nil {
						t.Errorf("consume failed: %v", out.ActionErr)
						return
					}
					consumed[i].Add(q)
				case 2:
					// Batched grants across shards, released in one
					// cross-shard message.
					reqs := make([]PromiseRequest, 4)
					for k := range reqs {
						reqs[k] = PromiseRequest{Predicates: []Predicate{Quantity(pools[rng.Intn(numPools)], 1)}}
					}
					resps, err := s.GrantBatch(bg, client, reqs)
					if err != nil {
						t.Error(err)
						return
					}
					var env []EnvEntry
					for k, pr := range resps {
						if !pr.Accepted {
							t.Errorf("batch grant %d rejected: %s", k, pr.Reason)
							return
						}
						env = append(env, EnvEntry{PromiseID: pr.PromiseID, Release: true})
					}
					if _, err := s.Execute(bg, Request{Client: client, Env: env}); err != nil {
						t.Error(err)
						return
					}
				}
				if it%37 == 0 {
					if err := s.Sweep(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Conservation: every pool's final level is its start minus exactly
	// what was consumed, and nothing is left reserved.
	for i, pool := range pools {
		lvl, err := s.PoolLevel(pool)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(perPool) - consumed[i].Load()
		if lvl != want {
			t.Errorf("pool %s level = %d, want %d (consumed %d)", pool, lvl, want, consumed[i].Load())
		}
		free := grantQty(t, s, "final", Quantity(pool, want))
		if !free.Accepted {
			t.Errorf("pool %s has leaked reservations: %s", pool, free.Reason)
		}
	}
	active, err := s.ActivePromises()
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != numPools { // the "final" probes above
		t.Errorf("%d active promises remain, want %d probes", len(active), numPools)
	}
	mustHealthy(t, s)
}

// TestShardedStressUpgradeChurn races §4 upgrades through the two-phase
// reserve/confirm pipeline: every worker continuously replaces its
// cross-shard composite with a same-size successor ("release N, promise N
// from the freed N"), with the pools sized so tightly that any
// double-count of tentatively-freed capacity over-grants and any leaked
// reservation starves a neighbour. Interleaved impossible upgrades force
// mid-pipeline aborts whose rollback must leave the old promise intact.
// Run under -race: this is the test that guards the reservation protocol.
func TestShardedStressUpgradeChurn(t *testing.T) {
	const (
		workers = 8
		iters   = 120
		hold    = 3
	)
	s, err := NewSharded(ShardedConfig{Shards: testShards(4), Config: Config{DefaultDuration: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	// Two pools, pinned to different shards, sized exactly to the workers'
	// aggregate holds: zero slack for conservation bugs to hide in.
	poolA := nameOnShard(t, s, 0, "churn-a")
	poolB := nameOnShard(t, s, 2, "churn-b")
	for _, pool := range []string{poolA, poolB} {
		if err := s.CreatePool(pool, workers*hold, nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			client := fmt.Sprintf("churner-%d", w)
			seed, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
				Predicates: []Predicate{Quantity(poolA, hold), Quantity(poolB, hold)},
			}}})
			if err != nil {
				t.Error(err)
				return
			}
			cur := seed.Promises[0]
			if !cur.Accepted {
				t.Errorf("initial grant rejected: %s", cur.Reason)
				return
			}
			for it := 0; it < iters; it++ {
				if rng.Intn(5) == 0 {
					// Impossible upgrade: asks for more than the whole pool,
					// so one shard reserves (tentatively freeing this
					// worker's holds) and the other aborts the pipeline.
					resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
						Predicates: []Predicate{Quantity(poolA, hold), Quantity(poolB, workers*hold+1)},
						Releases:   []string{cur.PromiseID},
					}}})
					if err != nil {
						t.Error(err)
						return
					}
					if resp.Promises[0].Accepted {
						t.Error("upgrade granted beyond pool capacity")
						return
					}
					if errs, _ := s.CheckBatch(bg, client, []string{cur.PromiseID}); errs[0] != nil {
						t.Errorf("aborted upgrade consumed the release target: %v", errs[0])
						return
					}
					continue
				}
				// Same-size upgrade: only satisfiable because the release is
				// applied tentatively inside the reservation.
				resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{Quantity(poolA, hold), Quantity(poolB, hold)},
					Releases:   []string{cur.PromiseID},
				}}})
				if err != nil {
					t.Error(err)
					return
				}
				next := resp.Promises[0]
				if !next.Accepted {
					t.Errorf("same-size upgrade rejected: %s", next.Reason)
					return
				}
				cur = next
			}
			if _, err := s.Execute(bg, Request{Client: client, Env: []EnvEntry{{PromiseID: cur.PromiseID, Release: true}}}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Conservation: every hold was released, so both pools must grant
	// their full capacity again.
	if full := grantQty(t, s, "final", Quantity(poolA, workers*hold), Quantity(poolB, workers*hold)); !full.Accepted {
		t.Errorf("pipeline leaked reservations: %s", full.Reason)
	}
	mustHealthy(t, s)
}

// TestShardedStressNoDoubleGrant races many goroutines over a small set of
// named instances spread across shards: at any moment at most one client
// may hold each instance. A CAS-guarded shadow flag detects double-grants.
func TestShardedStressNoDoubleGrant(t *testing.T) {
	const (
		workers   = 8
		iters     = 200
		instances = 16
	)
	s, err := NewSharded(ShardedConfig{Shards: testShards(4), Config: Config{DefaultDuration: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, instances)
	for i := range names {
		names[i] = fmt.Sprintf("seat-%d", i)
		if err := s.CreateInstance(names[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	var held [instances]atomic.Int32

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			client := fmt.Sprintf("racer-%d", w)
			for it := 0; it < iters; it++ {
				k := rng.Intn(instances)
				resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{Named(names[k])},
				}}})
				if err != nil {
					t.Error(err)
					return
				}
				pr := resp.Promises[0]
				if !pr.Accepted {
					continue // someone else holds it — that's the point
				}
				if !held[k].CompareAndSwap(0, 1) {
					t.Errorf("instance %s double-granted", names[k])
					return
				}
				// Clear the shadow flag before the release commits so a
				// racing grant after commit never sees a stale 1.
				held[k].Store(0)
				if _, err := s.Execute(bg, Request{Client: client, Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Everything was released: each instance must be grantable again.
	for _, name := range names {
		pr := grantQty(t, s, "final", Named(name))
		if !pr.Accepted {
			t.Errorf("instance %s not free after stress: %s", name, pr.Reason)
		}
	}
	mustHealthy(t, s)
}
