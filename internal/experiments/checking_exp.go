package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/txn"
)

// RunE5 — promise-checking cost per view as the promise table grows.
// Claim (§8): named checking is a duplicate/availability test, anonymous
// checking sums quantities, property checking needs graph matching — three
// distinct cost classes.
func RunE5(quick bool) (*Table, error) {
	sizes := []int{10, 100, 1000}
	if quick {
		sizes = []int{10, 100}
	}
	tbl := &Table{
		ID:      "E5",
		Title:   "grant latency vs outstanding promises, per resource view",
		Claim:   "§8: per-view promise checking algorithms have different cost classes",
		Columns: []string{"outstanding", "named µs/grant", "anonymous µs/grant", "property µs/grant"},
	}
	for _, n := range sizes {
		named, err := e5Named(n)
		if err != nil {
			return nil, err
		}
		anon, err := e5Anonymous(n)
		if err != nil {
			return nil, err
		}
		prop, err := e5Property(n)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", named),
			fmt.Sprintf("%.0f", anon),
			fmt.Sprintf("%.0f", prop),
		})
	}
	tbl.Notes = "expected shape: property grows fastest (matching), anonymous linear (sweep+sums), named cheapest"
	return tbl, nil
}

func e5Named(n int) (float64, error) {
	m, err := core.New(core.Config{DefaultDuration: time.Hour})
	if err != nil {
		return 0, err
	}
	tx := m.Store().Begin(txn.Block)
	for i := 0; i < n+20; i++ {
		if err := m.Resources().CreateInstance(tx, fmt.Sprintf("i%06d", i), nil); err != nil {
			_ = tx.Abort()
			return 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		resp, err := m.Execute(context.Background(), core.Request{Client: "seed", PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Named(fmt.Sprintf("i%06d", i))},
		}}})
		if err != nil {
			return 0, err
		}
		if !resp.Promises[0].Accepted {
			return 0, fmt.Errorf("seed grant %d rejected", i)
		}
	}
	return timeGrants(20, func(k int) core.Request {
		return core.Request{Client: "probe", PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Named(fmt.Sprintf("i%06d", n+k))},
		}}}
	}, m)
}

func e5Anonymous(n int) (float64, error) {
	m, err := newPromiseWorld(map[string]int64{"p": 1 << 40}, core.Config{DefaultDuration: time.Hour})
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if _, err := m.Execute(context.Background(), requestQty("seed", "p", 1)); err != nil {
			return 0, err
		}
	}
	return timeGrants(20, func(k int) core.Request {
		return requestQty("probe", "p", 1)
	}, m)
}

func e5Property(n int) (float64, error) {
	m, err := core.New(core.Config{DefaultDuration: time.Hour})
	if err != nil {
		return 0, err
	}
	tx := m.Store().Begin(txn.Block)
	for i := 0; i < n+20; i++ {
		props := map[string]predicate.Value{"slot": predicate.Int(int64(i))}
		if err := m.Resources().CreateInstance(tx, fmt.Sprintf("r%06d", i), props); err != nil {
			_ = tx.Abort()
			return 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		resp, err := m.Execute(context.Background(), core.Request{Client: "seed", PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.MustProperty(fmt.Sprintf("slot >= 0 and slot <= %d", n+20))},
		}}})
		if err != nil {
			return 0, err
		}
		if !resp.Promises[0].Accepted {
			return 0, fmt.Errorf("property seed %d rejected", i)
		}
	}
	return timeGrants(5, func(k int) core.Request {
		return core.Request{Client: "probe", PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.MustProperty("slot >= 0")},
		}}}
	}, m)
}

func requestQty(client, pool string, qty int64) core.Request {
	return core.Request{Client: client, PromiseRequests: []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity(pool, qty)},
	}}}
}

// timeGrants measures microseconds per granted request.
func timeGrants(k int, mk func(int) core.Request, m *core.Manager) (float64, error) {
	start := time.Now()
	for i := 0; i < k; i++ {
		resp, err := m.Execute(context.Background(), mk(i))
		if err != nil {
			return 0, err
		}
		if !resp.Promises[0].Accepted {
			return 0, fmt.Errorf("probe grant rejected: %s", resp.Promises[0].Reason)
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(k), nil
}

// RunE6 — bipartite matching cost and grant rate for property views.
// Claim (§5/§9): property-view satisfiability "can require a graph
// matching algorithm"; Hopcroft–Karp keeps it tractable at realistic pool
// sizes.
func RunE6(quick bool) (*Table, error) {
	sizes := []int{100, 1000, 5000}
	if quick {
		sizes = []int{100, 1000}
	}
	tbl := &Table{
		ID:      "E6",
		Title:   "Hopcroft–Karp matching cost on promise/instance graphs (5 candidates per promise)",
		Claim:   "§5/§9: property-view checking is graph matching, not logical satisfiability",
		Columns: []string{"promises x instances", "edges", "matching ms", "saturated"},
	}
	r := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		g := matching.NewGraph(n, n)
		edges := 0
		for l := 0; l < n; l++ {
			g.AddEdge(l, l) // guarantee feasibility
			edges++
			for k := 0; k < 4; k++ {
				g.AddEdge(l, r.Intn(n))
				edges++
			}
		}
		start := time.Now()
		_, ok := g.SaturatesLeft()
		ms := time.Since(start).Seconds() * 1000
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%dx%d", n, n),
			fmt.Sprintf("%d", edges),
			fmt.Sprintf("%.2f", ms),
			fmt.Sprintf("%v", ok),
		})
	}
	tbl.Notes = "expected shape: near-linear growth in edges; full saturation at every size"
	return tbl, nil
}

// RunE7 — tentative allocation (matching) vs naive first-fit grant rate.
// Claim (§5): rearranging tentative allocations admits promise sets that a
// fixed first-fit assignment rejects.
func RunE7(quick bool) (*Table, error) {
	trials := 200
	if quick {
		trials = 60
	}
	roomCounts := []int{4, 8, 16}
	tbl := &Table{
		ID:      "E7",
		Title:   "grant rate on overlapping hotel predicates (random arrival orders)",
		Claim:   "§5: tentative allocation + reallocation grants more than naive first-fit",
		Columns: []string{"rooms", "mode", "granted", "offered", "grant rate"},
	}
	for _, rooms := range roomCounts {
		for _, mode := range []core.PropertyMode{core.MatchingMode, core.FirstFitMode} {
			granted, offered, err := e7Run(rooms, trials, mode)
			if err != nil {
				return nil, err
			}
			name := "matching"
			if mode == core.FirstFitMode {
				name = "first-fit"
			}
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%d", rooms), name,
				fmt.Sprintf("%d", granted), fmt.Sprintf("%d", offered),
				fmt.Sprintf("%.1f%%", 100*float64(granted)/float64(offered)),
			})
		}
	}
	tbl.Notes = "expected shape: matching grant rate strictly above first-fit; gap widens with overlap"
	return tbl, nil
}

// e7Run replays `trials` random hotel workloads. Half the rooms have a
// view, half are on the 5th floor (with one overlap room having both);
// promise requests alternate between "view" and "floor = 5" in random
// order until rejection, counting grants.
func e7Run(rooms, trials int, mode core.PropertyMode) (granted, offered int, err error) {
	r := rand.New(rand.NewSource(int64(rooms)*31 + 7))
	for trial := 0; trial < trials; trial++ {
		m, err := core.New(core.Config{PropertyMode: mode, DefaultDuration: time.Hour})
		if err != nil {
			return 0, 0, err
		}
		tx := m.Store().Begin(txn.Block)
		for i := 0; i < rooms; i++ {
			props := map[string]predicate.Value{
				// Every room has exactly one of the two features except
				// room 0, which has both (the paper's room 512).
				"view":  predicate.Bool(i%2 == 0),
				"floor": predicate.Int(int64(3 + 2*(i%2))), // 3 or 5
			}
			if i == 0 {
				props["floor"] = predicate.Int(5)
			}
			if err := m.Resources().CreateInstance(tx, fmt.Sprintf("room-%03d", i), props); err != nil {
				_ = tx.Abort()
				return 0, 0, err
			}
		}
		if err := tx.Commit(); err != nil {
			return 0, 0, err
		}
		preds := []string{"view = true", "floor = 5"}
		for i := 0; i < rooms; i++ {
			expr := preds[r.Intn(2)]
			offered++
			resp, err := m.Execute(context.Background(), core.Request{Client: "c", PromiseRequests: []core.PromiseRequest{{
				Predicates: []core.Predicate{core.MustProperty(expr)},
			}}})
			if err != nil {
				return 0, 0, err
			}
			if resp.Promises[0].Accepted {
				granted++
			}
		}
	}
	return granted, offered, nil
}
