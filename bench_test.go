// Package repro_bench exposes the evaluation workloads of EXPERIMENTS.md as
// testing.B benchmarks — one benchmark family per experiment id (E1–E11).
// cmd/promise-bench prints the corresponding tables; these benches give
// per-operation costs for the same code paths.
//
// Run with: go test -bench=. -benchmem
package repro_bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/promises"
)

func benchWorld(b *testing.B, pools map[string]int64, cfg core.Config) *core.Manager {
	b.Helper()
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tx := m.Store().Begin(txn.Block)
	for pool, qty := range pools {
		if err := m.Resources().CreatePool(tx, pool, qty, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkE1 — full order (secure, hold, purchase) per regime and hold
// time; the promise rows should stay flat per-op while the locking rows pay
// serialization under -cpu parallelism.
func BenchmarkE1(b *testing.B) {
	holds := []time.Duration{0, time.Millisecond}
	for _, hold := range holds {
		think := func() {}
		if hold > 0 {
			h := hold
			think = func() { time.Sleep(h) }
		}
		b.Run(fmt.Sprintf("locking/hold=%s", hold), func(b *testing.B) {
			store := txn.NewStore()
			rm, err := txnResource(store)
			if err != nil {
				b.Fatal(err)
			}
			bl := baseline.NewLocking(store, rm)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := bl.RunOrder("w", 1, think); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
		b.Run(fmt.Sprintf("promises/hold=%s", hold), func(b *testing.B) {
			m := benchWorld(b, map[string]int64{"w": 1 << 40}, core.Config{})
			po := baseline.NewPromiseOrders(m)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := po.RunOrder("w", 1, think); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func newRM(store *txn.Store) (*resource.Manager, error) {
	return resource.NewManager(store)
}

func txnResource(store *txn.Store) (*resource.Manager, error) {
	r, err := newRM(store)
	if err != nil {
		return nil, err
	}
	tx := store.Begin(txn.Block)
	if err := r.CreatePool(tx, "w", 1<<40, nil); err != nil {
		_ = tx.Abort()
		return nil, err
	}
	return r, tx.Commit()
}

// BenchmarkE2 — grant+release cycle on one pool (the §3.1 concurrency
// claim); run with -cpu 1,4,16 to see scaling.
func BenchmarkE2(b *testing.B) {
	m := benchWorld(b, map[string]int64{"p": 1 << 40}, core.Config{})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := m.Execute(bg, core.Request{
				Client: "c",
				PromiseRequests: []core.PromiseRequest{{
					Predicates: []core.Predicate{core.Quantity("p", 1)},
				}},
			})
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := m.Execute(bg, core.Request{
				Client: "c",
				Env:    []core.EnvEntry{{PromiseID: resp.Promises[0].PromiseID, Release: true}},
			}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkE3 — one secured order end to end under the two regimes.
func BenchmarkE3(b *testing.B) {
	b.Run("check-then-act", func(b *testing.B) {
		store := txn.NewStore()
		rm, err := txnResource(store)
		if err != nil {
			b.Fatal(err)
		}
		cta := baseline.NewCheckThenAct(store, rm)
		for i := 0; i < b.N; i++ {
			if _, err := cta.RunOrder("w", 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("promises", func(b *testing.B) {
		m := benchWorld(b, map[string]int64{"w": 1 << 40}, core.Config{})
		po := baseline.NewPromiseOrders(m)
		for i := 0; i < b.N; i++ {
			if _, err := po.RunOrder("w", 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4 — cyclic two-resource order per regime (promises never
// deadlock; locking pays detection+retry under -cpu parallelism).
func BenchmarkE4(b *testing.B) {
	pools := map[string]int64{"a": 1 << 40, "b": 1 << 40}
	b.Run("locking", func(b *testing.B) {
		store := txn.NewStore()
		rm, err := newRM(store)
		if err != nil {
			b.Fatal(err)
		}
		tx := store.Begin(txn.Block)
		for pool, qty := range pools {
			if err := rm.CreatePool(tx, pool, qty, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		bl := baseline.NewLocking(store, rm)
		var flip int64
		b.RunParallel(func(pb *testing.PB) {
			order := []string{"a", "b"}
			if flip%2 == 1 {
				order = []string{"b", "a"}
			}
			flip++
			for pb.Next() {
				if _, err := bl.RunMultiOrder(order, 1, nil); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("promises", func(b *testing.B) {
		m := benchWorld(b, pools, core.Config{})
		po := baseline.NewPromiseOrders(m)
		var flip int64
		b.RunParallel(func(pb *testing.PB) {
			order := []string{"a", "b"}
			if flip%2 == 1 {
				order = []string{"b", "a"}
			}
			flip++
			for pb.Next() {
				if _, err := po.RunMultiOrder(order, 1, nil); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkE5 — grant+release per view with a populated promise table.
func BenchmarkE5(b *testing.B) {
	const outstanding = 500
	b.Run("anonymous", func(b *testing.B) {
		m := benchWorld(b, map[string]int64{"p": 1 << 40}, core.Config{DefaultDuration: time.Hour})
		for i := 0; i < outstanding; i++ {
			mustGrant(b, m, core.Quantity("p", 1))
		}
		b.ResetTimer()
		grantReleaseLoop(b, m, func() core.Predicate { return core.Quantity("p", 1) })
	})
	b.Run("named", func(b *testing.B) {
		m := benchWorld(b, nil, core.Config{DefaultDuration: time.Hour})
		tx := m.Store().Begin(txn.Block)
		for i := 0; i < outstanding+1; i++ {
			if err := m.Resources().CreateInstance(tx, fmt.Sprintf("i%06d", i), nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < outstanding; i++ {
			mustGrant(b, m, core.Named(fmt.Sprintf("i%06d", i)))
		}
		b.ResetTimer()
		grantReleaseLoop(b, m, func() core.Predicate { return core.Named(fmt.Sprintf("i%06d", outstanding)) })
	})
	b.Run("property", func(b *testing.B) {
		m := benchWorld(b, nil, core.Config{DefaultDuration: time.Hour})
		tx := m.Store().Begin(txn.Block)
		for i := 0; i < outstanding+1; i++ {
			props := map[string]predicate.Value{"slot": predicate.Int(int64(i))}
			if err := m.Resources().CreateInstance(tx, fmt.Sprintf("r%06d", i), props); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < outstanding; i++ {
			mustGrant(b, m, core.MustProperty("slot >= 0"))
		}
		b.ResetTimer()
		grantReleaseLoop(b, m, func() core.Predicate { return core.MustProperty("slot >= 0") })
	})
}

func mustGrant(b *testing.B, m *core.Manager, pred core.Predicate) string {
	b.Helper()
	resp, err := m.Execute(bg, core.Request{Client: "seed", PromiseRequests: []core.PromiseRequest{{
		Predicates: []core.Predicate{pred},
	}}})
	if err != nil {
		b.Fatal(err)
	}
	if !resp.Promises[0].Accepted {
		b.Fatalf("seed grant rejected: %s", resp.Promises[0].Reason)
	}
	return resp.Promises[0].PromiseID
}

func grantReleaseLoop(b *testing.B, m *core.Manager, pred func() core.Predicate) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		resp, err := m.Execute(bg, core.Request{Client: "probe", PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{pred()},
		}}})
		if err != nil {
			b.Fatal(err)
		}
		pr := resp.Promises[0]
		if !pr.Accepted {
			b.Fatalf("probe rejected: %s", pr.Reason)
		}
		if _, err := m.Execute(bg, core.Request{Client: "probe", Env: []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6 — raw Hopcroft–Karp on promise/instance graphs.
func BenchmarkE6(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(7))
			g := matching.NewGraph(n, n)
			for l := 0; l < n; l++ {
				g.AddEdge(l, l)
				for k := 0; k < 4; k++ {
					g.AddEdge(l, r.Intn(n))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := g.SaturatesLeft(); !ok {
					b.Fatal("unsaturated")
				}
			}
		})
	}
}

// BenchmarkE7 — property grant under the two §5 techniques, on a pool with
// overlapping predicates already outstanding.
func BenchmarkE7(b *testing.B) {
	for _, mode := range []core.PropertyMode{core.MatchingMode, core.FirstFitMode} {
		name := "matching"
		if mode == core.FirstFitMode {
			name = "first-fit"
		}
		b.Run(name, func(b *testing.B) {
			m := benchWorld(b, nil, core.Config{PropertyMode: mode, DefaultDuration: time.Hour})
			tx := m.Store().Begin(txn.Block)
			for i := 0; i < 64; i++ {
				props := map[string]predicate.Value{
					"view":  predicate.Bool(i%2 == 0),
					"floor": predicate.Int(int64(3 + 2*(i%2))),
				}
				if err := m.Resources().CreateInstance(tx, fmt.Sprintf("room-%03d", i), props); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				mustGrant(b, m, core.MustProperty("view = true"))
			}
			b.ResetTimer()
			grantReleaseLoop(b, m, func() core.Predicate { return core.MustProperty("floor = 5") })
		})
	}
}

// BenchmarkE8 — atomic modify (upgrade) round trip.
func BenchmarkE8(b *testing.B) {
	m := benchWorld(b, map[string]int64{"acct": 1 << 40}, core.Config{DefaultDuration: time.Hour})
	id := mustGrant(b, m, core.Quantity("acct", 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := m.Execute(bg, core.Request{Client: "seed", PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Quantity("acct", 100+int64(i%2))},
			Releases:   []string{id},
		}}})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Promises[0].Accepted {
			b.Fatalf("upgrade rejected: %s", resp.Promises[0].Reason)
		}
		id = resp.Promises[0].PromiseID
	}
}

// BenchmarkE9 — the price of the §8 post-action check (and its ablation).
func BenchmarkE9(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "post-check-on"
		if disable {
			name = "post-check-off"
		}
		b.Run(name, func(b *testing.B) {
			m := benchWorld(b, map[string]int64{"p": 1 << 40}, core.Config{
				DisablePostCheck: disable, DefaultDuration: time.Hour,
			})
			for i := 0; i < 100; i++ {
				mustGrant(b, m, core.Quantity("p", 1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := m.Execute(bg, core.Request{
					Client: "c",
					Action: func(ac *core.ActionContext) (any, error) {
						_, err := ac.Resources.AdjustPool(ac.Tx, "p", -1)
						return nil, err
					},
				})
				if err != nil || resp.ActionErr != nil {
					b.Fatalf("%v %v", err, resp.ActionErr)
				}
			}
		})
	}
}

// BenchmarkE10 — envelope codec and HTTP round trips (piggybacked vs
// separate purchase+release).
func BenchmarkE10(b *testing.B) {
	b.Run("codec", func(b *testing.B) {
		env := &protocol.Envelope{Header: protocol.Header{
			Client: "c",
			Promise: &protocol.PromiseHeader{Requests: []protocol.WireRequest{{
				ID:         "r1",
				Predicates: []protocol.WirePredicate{{View: "anonymous", Pool: "w", Qty: 5}},
			}}},
		}}
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := protocol.Encode(&buf, env); err != nil {
				b.Fatal(err)
			}
			if _, err := protocol.Decode(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http-piggybacked", func(b *testing.B) {
		c, _ := benchHTTP(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("w", 1)}, time.Hour)
			if err != nil || !pr.Accepted {
				b.Fatalf("%v %v", pr, err)
			}
			if _, err := c.Invoke(bg, []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
				"adjust-pool", map[string]string{"pool": "w", "delta": "-1"}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http-separate", func(b *testing.B) {
		c, _ := benchHTTP(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("w", 1)}, time.Hour)
			if err != nil || !pr.Accepted {
				b.Fatalf("%v %v", pr, err)
			}
			if _, err := c.Invoke(bg, []core.EnvEntry{{PromiseID: pr.PromiseID}},
				"adjust-pool", map[string]string{"pool": "w", "delta": "-1"}); err != nil {
				b.Fatal(err)
			}
			if err := c.Release(bg, "", pr.PromiseID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchHTTP(b *testing.B) (*transport.Client, *core.Manager) {
	b.Helper()
	m := benchWorld(b, map[string]int64{"w": 1 << 40}, core.Config{DefaultDuration: time.Hour})
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	srv := httptest.NewServer(transport.NewServer(m, reg).Handler())
	b.Cleanup(srv.Close)
	return &transport.Client{BaseURL: srv.URL, Client: "c"}, m
}

// BenchmarkE11 — delegated grant+release across supplier chains.
func BenchmarkE11(b *testing.B) {
	for _, depth := range []int{1, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			managers := make([]*promises.Manager, depth+1)
			managers[depth] = benchWorld(b, map[string]int64{"w": 1 << 40}, core.Config{DefaultDuration: time.Hour})
			for i := depth - 1; i >= 0; i-- {
				managers[i] = benchWorld(b, map[string]int64{"w": 0}, core.Config{
					DefaultDuration: time.Hour,
					Suppliers: map[string]core.Supplier{
						"w": &core.ManagerSupplier{M: managers[i+1], Client: fmt.Sprintf("tier-%d", i)},
					},
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := managers[0].Execute(bg, core.Request{Client: "c", PromiseRequests: []core.PromiseRequest{{
					Predicates: []core.Predicate{core.Quantity("w", 5)},
				}}})
				if err != nil {
					b.Fatal(err)
				}
				pr := resp.Promises[0]
				if !pr.Accepted {
					b.Fatalf("rejected: %s", pr.Reason)
				}
				if _, err := managers[0].Execute(bg, core.Request{
					Client: "c",
					Env:    []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12 — sharded vs serialized promise manager under parallel
// grant/release load through the public API. Workers each own one pool;
// with shards > 1 they stripe across stores and scale with cores, while
// shards=1 serializes every request through one shard lock. Run with
// -cpu 8 for the headline ratio.
func BenchmarkE12(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := promises.NewSharded(promises.ShardedConfig{Shards: shards, Config: promises.Config{DefaultDuration: time.Hour}})
			if err != nil {
				b.Fatal(err)
			}
			const pools = 32
			names := make([]string, pools)
			for i := range names {
				names[i] = fmt.Sprintf("pool-%d", i)
				if err := s.CreatePool(names[i], 1<<40, nil); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := next.Add(1)
				pool := names[int(id)%pools]
				client := fmt.Sprintf("c%d", id)
				for pb.Next() {
					resp, err := s.Execute(bg, core.Request{Client: client, PromiseRequests: []core.PromiseRequest{{
						Predicates: []core.Predicate{core.Quantity(pool, 1)},
					}}})
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := s.Execute(bg, core.Request{Client: client, Env: []core.EnvEntry{{PromiseID: resp.Promises[0].PromiseID, Release: true}}}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

var bg = context.Background()
