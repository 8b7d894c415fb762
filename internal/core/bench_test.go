package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/txn"
)

func benchManager(b *testing.B, cfg Config) *Manager {
	b.Helper()
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkGrantReleaseAnonymous is the core grant path without transport.
func BenchmarkGrantReleaseAnonymous(b *testing.B) {
	m := benchManager(b, Config{DefaultDuration: time.Hour})
	tx := m.only().store.Begin(txn.Block)
	if err := m.only().rm.CreatePool(tx, "p", 1<<40, nil); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := m.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Quantity("p", 1)},
		}}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: resp.Promises[0].PromiseID, Release: true}}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyMatcherSeeding is the ablation behind the E5 note: solving
// the property assignment from the stored assignments (incremental) vs from
// scratch (what a full per-grant matching would do). Both must saturate;
// seeded should be markedly cheaper because only one augmenting path runs.
func BenchmarkLazyMatcherSeeding(b *testing.B) {
	const n = 500
	exprs := make([]predicate.Expr, n)
	cands := make([]*resource.Instance, n)
	initial := make([]string, n)
	for i := 0; i < n; i++ {
		// Slot i accepts candidates [i, n): a triangular structure where
		// unseeded solving does real augmentation work.
		exprs[i] = predicate.MustParse(fmt.Sprintf("slot >= %d", i))
		cands[i] = &resource.Instance{
			ID:    fmt.Sprintf("inst-%06d", i),
			Props: map[string]predicate.Value{"slot": predicate.Int(int64(i))},
		}
		initial[i] = fmt.Sprintf("inst-%06d", i)
	}
	empty := make([]string, n)

	b.Run("seeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := lazyMatch(exprs, cands, initial); !ok {
				b.Fatal("unsaturated")
			}
		}
	})
	b.Run("unseeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := lazyMatch(exprs, cands, empty); !ok {
				b.Fatal("unsaturated")
			}
		}
	})
}

// BenchmarkSweep measures the per-request expiry cost as the active
// promise table grows. Before the expiry heap this was a scan of every
// active promise on every request — per-op cost grew linearly with the
// table (the dominant cost in BenchmarkManagerParallel); with the heap the
// request path only peeks the top entry, so per-op cost must stay flat
// across the promises=N sub-benchmarks.
func BenchmarkSweep(b *testing.B) {
	world := func(b *testing.B, n int) *Manager {
		b.Helper()
		m := benchManager(b, Config{DefaultDuration: time.Hour})
		tx := m.only().store.Begin(txn.Block)
		// The outstanding promises hold a pool of their own, so the probe
		// measures the per-request cost the table size imposes (formerly
		// the sweep scan), not contention on one escrow entry.
		for _, pool := range []string{"p", "held"} {
			if err := m.only().rm.CreatePool(tx, pool, 1<<40, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			resp, err := m.Execute(bg, Request{Client: "seed", PromiseRequests: []PromiseRequest{{
				Predicates: []Predicate{Quantity("held", 1)},
			}}})
			if err != nil || !resp.Promises[0].Accepted {
				b.Fatalf("%v %v", resp, err)
			}
		}
		return m
	}
	for _, n := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("request/promises=%d", n), func(b *testing.B) {
			m := world(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := m.Execute(bg, Request{Client: "probe", PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{Quantity("p", 1)},
				}}})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Execute(bg, Request{Client: "probe", Env: []EnvEntry{{PromiseID: resp.Promises[0].PromiseID, Release: true}}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAudit prices the full consistency audit.
func BenchmarkAudit(b *testing.B) {
	m := benchManager(b, Config{DefaultDuration: time.Hour})
	tx := m.only().store.Begin(txn.Block)
	if err := m.only().rm.CreatePool(tx, "p", 1<<40, nil); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := m.only().rm.CreateInstance(tx, fmt.Sprintf("i%d", i), map[string]predicate.Value{
			"x": predicate.Int(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := m.Execute(bg, Request{Client: "seed", PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Quantity("p", 1)},
		}}}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := m.Execute(bg, Request{Client: "seed", PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{MustProperty("x >= 0")},
		}}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := m.Audit()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Healthy() {
			b.Fatalf("unhealthy: %s", rep)
		}
	}
}

// benchShardedPools builds a sharded manager with enough distinct pools
// that parallel workers spread across shards.
func benchShardedPools(b *testing.B, shards, pools int) (*Manager, []string) {
	b.Helper()
	s, err := New(Config{Shards: shards, DefaultDuration: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, pools)
	for i := range names {
		names[i] = fmt.Sprintf("pool-%d", i)
		if err := s.CreatePool(names[i], 1<<40, nil); err != nil {
			b.Fatal(err)
		}
	}
	return s, names
}

// BenchmarkManagerParallel is the sharding headline: grant+release cycles
// under b.RunParallel with a realistic outstanding-promise table (512
// long-lived promises), comparing the serialized single-shard
// configuration against the sharded one. Sharding wins twice: workers on
// different shards proceed concurrently, and the per-request linear
// factors (the §8 expiry sweep scans every active promise in the store)
// shrink to 1/N per shard because each shard holds only its stripe.
// Run with -cpu 8 to reproduce the 8-goroutine acceptance number.
func BenchmarkManagerParallel(b *testing.B) {
	const outstanding = 512
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, pools := benchShardedPools(b, shards, 32)
			for i := 0; i < outstanding; i++ {
				resp, err := s.Execute(bg, Request{Client: "holder", PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{Quantity(pools[i%len(pools)], 1)},
				}}})
				if err != nil || !resp.Promises[0].Accepted {
					b.Fatalf("%v %v", resp, err)
				}
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := next.Add(1)
				pool := pools[int(id)%len(pools)]
				client := fmt.Sprintf("c%d", id)
				for pb.Next() {
					resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
						Predicates: []Predicate{Quantity(pool, 1)},
					}}})
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := s.Execute(bg, Request{Client: client, Env: []EnvEntry{{PromiseID: resp.Promises[0].PromiseID, Release: true}}}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkGrantBatch prices the batched request API against one Execute
// per request: a batch of 16 single-pool grants pays for shard locks, the
// expiry sweep and transaction setup once per shard instead of 16 times.
// The outstanding promises make the per-Execute sweep a real cost, as in
// any loaded deployment.
func BenchmarkGrantBatch(b *testing.B) {
	const batch = 16
	const outstanding = 256
	hold := func(b *testing.B, s *Manager, pools []string) {
		b.Helper()
		for i := 0; i < outstanding; i++ {
			resp, err := s.Execute(bg, Request{Client: "holder", PromiseRequests: []PromiseRequest{{
				Predicates: []Predicate{Quantity(pools[i%len(pools)], 1)},
			}}})
			if err != nil || !resp.Promises[0].Accepted {
				b.Fatalf("%v %v", resp, err)
			}
		}
	}
	b.Run("individual", func(b *testing.B) {
		s, pools := benchShardedPools(b, 8, batch)
		hold(b, s, pools)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var env []EnvEntry
			for k := 0; k < batch; k++ {
				resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{Quantity(pools[k], 1)},
				}}})
				if err != nil {
					b.Fatal(err)
				}
				env = append(env, EnvEntry{PromiseID: resp.Promises[0].PromiseID, Release: true})
			}
			if _, err := s.Execute(bg, Request{Client: "c", Env: env}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		s, pools := benchShardedPools(b, 8, batch)
		hold(b, s, pools)
		reqs := make([]PromiseRequest, batch)
		for k := range reqs {
			reqs[k] = PromiseRequest{Predicates: []Predicate{Quantity(pools[k], 1)}}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resps, err := s.GrantBatch(bg, "c", reqs)
			if err != nil {
				b.Fatal(err)
			}
			var env []EnvEntry
			for _, pr := range resps {
				env = append(env, EnvEntry{PromiseID: pr.PromiseID, Release: true})
			}
			if _, err := s.Execute(bg, Request{Client: "c", Env: env}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckUnderWriteLoad is the acceptance benchmark for the
// versioned-snapshot read path: readers run CheckBatch against a sharded
// manager while N background granters sustain write load. The aggregate
// write rate is held constant across the writers=N variants (each writer
// paced to N milliseconds, ~1k grant+release cycles/sec total) so the
// only variable is how many concurrent writers hold shard write locks —
// the benchmark measures lock interference, not CPU contention, and stays
// meaningful on small hosts. Because checks read immutable committed
// snapshots with zero lock acquisition, read ns/op must stay flat (±20%)
// from writers=0 to writers=8 — before the snapshot path, readers queued
// behind each shard's RWMutex and degraded with write load. Run with
// -cpu 1,8 to see the scaling.
func BenchmarkCheckUnderWriteLoad(b *testing.B) {
	for _, writers := range []int{0, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			s, err := New(Config{Shards: 8, DefaultDuration: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			// Each writer owns a pool; readers check a spread of held ids.
			writerPools := make([]string, 8)
			for i := range writerPools {
				writerPools[i] = fmt.Sprintf("wl-pool-%d", i)
				if err := s.CreatePool(writerPools[i], 1<<40, nil); err != nil {
					b.Fatal(err)
				}
			}
			const held = 64
			ids := make([]string, held)
			for i := range ids {
				resp, err := s.Execute(bg, Request{Client: "r", PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{Quantity(writerPools[i%len(writerPools)], 1)},
				}}})
				if err != nil || !resp.Promises[0].Accepted {
					b.Fatalf("%v %v", resp, err)
				}
				ids[i] = resp.Promises[0].PromiseID
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					client := fmt.Sprintf("w%d", w)
					pool := writerPools[w%len(writerPools)]
					tick := time.NewTicker(time.Duration(writers) * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
						}
						resp, err := s.Execute(bg, Request{Client: client, PromiseRequests: []PromiseRequest{{
							Predicates: []Predicate{Quantity(pool, 1)},
						}}})
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := s.Execute(bg, Request{Client: client,
							Env: []EnvEntry{{PromiseID: resp.Promises[0].PromiseID, Release: true}}}); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				base := int(next.Add(16))
				for pb.Next() {
					base++
					errs, err := s.CheckBatch(bg, "r", ids[base%held:base%held+1])
					if err != nil {
						b.Error(err)
						return
					}
					if errs[0] != nil {
						b.Errorf("held promise reported %v", errs[0])
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkCrossShardPropertyGrant prices the reservation pre-filter: a
// property-predicate grant on a skewed placement (every satisfying
// instance on one shard) must reserve only the shards that can
// contribute, while the uniform placement spreads candidates — and
// reservations — across all shards. The skipped-reservations metric is
// reported per op; before the pre-filter both layouts reserved all 8
// shards for every grant.
func BenchmarkCrossShardPropertyGrant(b *testing.B) {
	layouts := []struct {
		name   string
		shards func(i int) int // which shard instance i lands on
	}{
		{name: "skewed", shards: func(i int) int { return 0 }},
		{name: "uniform", shards: func(i int) int { return i % 8 }},
	}
	for _, layout := range layouts {
		b.Run(layout.name, func(b *testing.B) {
			s, err := New(Config{Shards: 8, DefaultDuration: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			const instances = 32
			for i := 0; i < instances; i++ {
				id := nameOnShard(b, s, layout.shards(i), fmt.Sprintf("xp-%s-%d", layout.name, i))
				props := map[string]predicate.Value{"gpu": predicate.Bool(true)}
				if err := s.CreateInstance(id, props); err != nil {
					b.Fatal(err)
				}
			}
			skippedBefore := s.prefilterSkipped.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
					Predicates: []Predicate{MustProperty("gpu")},
				}}})
				if err != nil {
					b.Fatal(err)
				}
				pr := resp.Promises[0]
				if !pr.Accepted {
					b.Fatalf("rejected: %s", pr.Reason)
				}
				if _, err := s.Execute(bg, Request{Client: "c",
					Env: []EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(s.prefilterSkipped.Value()-skippedBefore)/float64(b.N), "skipped-shards/op")
			}
		})
	}
}

// BenchmarkPreemptionGrant prices the displacement path against the plain
// grant path it extends. Both sub-benchmarks run the same
// grant-then-release cycle on a one-unit pool at priority 1; "displace"
// additionally keeps the pool spot-held, so every grant must plan a victim
// set, revoke it inside the reservation, and emit the preempted event —
// then re-establish the spot hold for the next iteration. The victims/op
// metric (from the engine's preemption counter) pins the displacement
// work: ~1 on the displace rows, 0 on plain.
func BenchmarkPreemptionGrant(b *testing.B) {
	for _, variant := range []string{"plain", "displace"} {
		b.Run(variant, func(b *testing.B) {
			m := benchManager(b, Config{DefaultDuration: time.Hour})
			tx := m.only().store.Begin(txn.Block)
			if err := m.only().rm.CreatePool(tx, "p", 1, nil); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			spot := func() {
				resp, err := m.GrantBatch(bg, "spot", []PromiseRequest{{
					Predicates: []Predicate{Quantity("p", 1)}, Preemptible: true,
				}})
				if err != nil {
					b.Fatal(err)
				}
				if !resp[0].Accepted {
					b.Fatalf("spot hold rejected: %s", resp[0].Reason)
				}
			}
			if variant == "displace" {
				spot()
			}
			before := m.Stats().Preemptions
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := m.GrantBatch(bg, "od", []PromiseRequest{{
					Predicates: []Predicate{Quantity("p", 1)}, Priority: 1,
				}})
				if err != nil {
					b.Fatal(err)
				}
				if !resp[0].Accepted {
					b.Fatalf("grant rejected: %s", resp[0].Reason)
				}
				if err := m.Release(bg, "od", resp[0].PromiseID); err != nil {
					b.Fatal(err)
				}
				if variant == "displace" {
					spot()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(m.Stats().Preemptions-before)/float64(b.N), "victims/op")
		})
	}
}
