// Package experiments implements the reproduction's evaluation suite.
//
// The paper is a position paper with no quantitative evaluation, so each
// experiment here validates one falsifiable claim made in its prose, or
// reproduces one of its two figures as a runnable artifact. The claim tests
// in experiments_test.go (E1–E11) state and assert each claim;
// cmd/promise-bench prints the tables, and the repo-root bench_test.go
// exposes the same workloads as testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/txn"
)

// Table is one experiment's result table.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test
	Columns []string
	Rows    [][]string
	Notes   string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Runner is one experiment. quick trims iteration counts for CI.
type Runner func(quick bool) (*Table, error)

// Registry maps experiment ids to runners.
var Registry = map[string]Runner{
	"E1":  RunE1,
	"E2":  RunE2,
	"E3":  RunE3,
	"E4":  RunE4,
	"E5":  RunE5,
	"E6":  RunE6,
	"E7":  RunE7,
	"E8":  RunE8,
	"E9":  RunE9,
	"E10": RunE10,
	"E11": RunE11,
}

// IDs returns the experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E2 < E10 numerically.
		var a, b int
		fmt.Sscanf(out[i], "E%d", &a)
		fmt.Sscanf(out[j], "E%d", &b)
		return a < b
	})
	return out
}

// newWorld builds a store+RM seeded with pools.
func newWorld(pools map[string]int64) (*txn.Store, *resource.Manager, error) {
	store := txn.NewStore()
	rm, err := resource.NewManager(store)
	if err != nil {
		return nil, nil, err
	}
	tx := store.Begin(txn.Block)
	for pool, qty := range pools {
		if err := rm.CreatePool(tx, pool, qty, nil); err != nil {
			_ = tx.Abort()
			return nil, nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, nil, err
	}
	return store, rm, nil
}

// newPromiseWorld builds a manager seeded with pools.
func newPromiseWorld(pools map[string]int64, cfg core.Config) (*core.Manager, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	for pool, qty := range pools {
		if err := m.CreatePool(pool, qty, nil); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RunE1 — Promises vs long-duration 2PL: order throughput as the hold
// (think) time grows. Claim (§1, §9): lock-based isolation "assumes an
// environment where activities run very quickly"; promises let clients
// hold guarantees across long operations without serializing each other.
func RunE1(quick bool) (*Table, error) {
	orders := 200
	clients := 8
	if quick {
		orders = 64
	}
	holds := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	tbl := &Table{
		ID:      "E1",
		Title:   "order throughput vs hold time (8 clients, one pool)",
		Claim:   "§1/§9: long-duration locks serialize long-running operations; promises do not",
		Columns: []string{"hold", "locking ord/s", "promises ord/s", "speedup"},
	}
	for _, hold := range holds {
		think := func() {}
		if hold > 0 {
			h := hold
			think = func() { time.Sleep(h) }
		}
		lockRate, err := e1Locking(orders, clients, think)
		if err != nil {
			return nil, err
		}
		promRate, err := e1Promises(orders, clients, think)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			hold.String(),
			fmt.Sprintf("%.0f", lockRate),
			fmt.Sprintf("%.0f", promRate),
			fmt.Sprintf("%.1fx", promRate/lockRate),
		})
	}
	tbl.Notes = "expected shape: locking wins on raw overhead at hold=0; promises overtake and approach the client count as hold dominates"
	return tbl, nil
}

func e1Locking(orders, clients int, think func()) (float64, error) {
	store, rm, err := newWorld(map[string]int64{"w": 1 << 40})
	if err != nil {
		return 0, err
	}
	b := baseline.NewLocking(store, rm)
	return runOrderLoop(orders, clients, func() error {
		_, err := b.RunOrder("w", 1, think)
		return err
	})
}

func e1Promises(orders, clients int, think func()) (float64, error) {
	m, err := newPromiseWorld(map[string]int64{"w": 1 << 40}, core.Config{})
	if err != nil {
		return 0, err
	}
	b := baseline.NewPromiseOrders(m)
	return runOrderLoop(orders, clients, func() error {
		_, err := b.RunOrder("w", 1, think)
		return err
	})
}

// runOrderLoop spreads `orders` across `clients` goroutines and returns
// orders/second.
func runOrderLoop(orders, clients int, one func() error) (float64, error) {
	var wg sync.WaitGroup
	var firstErr atomic.Value
	var done atomic.Int64
	start := time.Now()
	per := orders / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := one(); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return 0, err
	}
	return float64(done.Load()) / elapsed.Seconds(), nil
}

// RunE2 — concurrent non-conflicting promises on one pool. Claim (§3.1):
// "There can be any number of promises outstanding on anonymous resources,
// the only constraint being that the sum … should not exceed the resources
// that are actually available" — so grant throughput should scale with
// clients while 2PL on the pool record serializes.
func RunE2(quick bool) (*Table, error) {
	cycles := 400
	if quick {
		cycles = 100
	}
	clientCounts := []int{1, 2, 4, 8, 16}
	tbl := &Table{
		ID:      "E2",
		Title:   "grant+release cycles/s on one pool vs client count (1ms hold)",
		Claim:   "§3.1: many concurrent promises can coexist on one pool; a lock admits one holder",
		Columns: []string{"clients", "locking cyc/s", "promises cyc/s", "promises granted sum<=onhand"},
	}
	hold := func() { time.Sleep(time.Millisecond) }
	for _, clients := range clientCounts {
		// Locking: exclusive lock held for the hold period per cycle.
		store, rm, err := newWorld(map[string]int64{"p": 1 << 40})
		if err != nil {
			return nil, err
		}
		lb := baseline.NewLocking(store, rm)
		lockRate, err := runOrderLoop(cycles, clients, func() error {
			_, err := lb.RunOrder("p", 1, hold)
			return err
		})
		if err != nil {
			return nil, err
		}
		// Promises: grant, hold, release (no purchase, pure reservation
		// churn).
		m, err := newPromiseWorld(map[string]int64{"p": 1 << 40}, core.Config{})
		if err != nil {
			return nil, err
		}
		okInvariant := true
		promRate, err := runOrderLoop(cycles, clients, func() error {
			resp, err := m.Execute(context.Background(), core.Request{
				Client: "c",
				PromiseRequests: []core.PromiseRequest{{
					Predicates: []core.Predicate{core.Quantity("p", 1)},
				}},
			})
			if err != nil {
				return err
			}
			if !resp.Promises[0].Accepted {
				okInvariant = false
				return fmt.Errorf("grant rejected on huge pool")
			}
			hold()
			_, err = m.Execute(context.Background(), core.Request{
				Client: "c",
				Env:    []core.EnvEntry{{PromiseID: resp.Promises[0].PromiseID, Release: true}},
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%.0f", lockRate),
			fmt.Sprintf("%.0f", promRate),
			fmt.Sprintf("%v", okInvariant),
		})
	}
	tbl.Notes = "expected shape: locking flat (~1/hold), promises scale with clients until manager contention"
	return tbl, nil
}

// RunE3 — failure-mode comparison. Claim (§2, §7): with promises,
// "unavailability exceptions can be treated as serious errors rather than
// as part of the normal processing flow"; without isolation the
// check-then-act gap produces late failures routinely.
func RunE3(quick bool) (*Table, error) {
	rounds := 6
	if quick {
		rounds = 3
	}
	clientCounts := []int{2, 8, 24}
	tbl := &Table{
		ID:      "E3",
		Title:   "order outcomes under contention (pool refilled per round)",
		Claim:   "§2/§7: promises turn late failures into up-front rejections",
		Columns: []string{"clients", "regime", "fulfilled", "rejected-early", "failed-late"},
	}
	for _, clients := range clientCounts {
		for _, regime := range []string{"check-then-act", "promises"} {
			var fulfilled, early, late atomic.Int64
			for r := 0; r < rounds; r++ {
				// Pool deliberately smaller than demand: clients want 2
				// each, pool holds enough for half of them.
				pool := int64(clients) // clients*2 demanded, clients available
				var runOne func() (baseline.Outcome, error)
				switch regime {
				case "check-then-act":
					store, rm, err := newWorld(map[string]int64{"w": pool})
					if err != nil {
						return nil, err
					}
					b := baseline.NewCheckThenAct(store, rm)
					runOne = func() (baseline.Outcome, error) {
						return b.RunOrder("w", 2, func() { time.Sleep(2 * time.Millisecond) })
					}
				default:
					m, err := newPromiseWorld(map[string]int64{"w": pool}, core.Config{})
					if err != nil {
						return nil, err
					}
					b := baseline.NewPromiseOrders(m)
					runOne = func() (baseline.Outcome, error) {
						return b.RunOrder("w", 2, func() { time.Sleep(2 * time.Millisecond) })
					}
				}
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						out, err := runOne()
						if err != nil {
							late.Add(1)
							return
						}
						switch out {
						case baseline.Fulfilled:
							fulfilled.Add(1)
						case baseline.RejectedEarly:
							early.Add(1)
						case baseline.FailedLate:
							late.Add(1)
						}
					}()
				}
				wg.Wait()
			}
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%d", clients), regime,
				fmt.Sprintf("%d", fulfilled.Load()),
				fmt.Sprintf("%d", early.Load()),
				fmt.Sprintf("%d", late.Load()),
			})
		}
	}
	tbl.Notes = "expected shape: promises row always shows failed-late = 0"
	return tbl, nil
}

// RunE4 — deadlock behaviour. Claim (§9): "because unfulfillable promise
// requests are rejected immediately rather than blocking, we do not have to
// worry about the deadlock issues that plague lock-based algorithms."
func RunE4(quick bool) (*Table, error) {
	rounds := 40
	if quick {
		rounds = 15
	}
	clientPairs := []int{1, 4, 8}
	tbl := &Table{
		ID:      "E4",
		Title:   "cyclic two-resource orders: deadlock victims per regime",
		Claim:   "§9: promises reject immediately, so no deadlock; 2PL deadlocks under cyclic demand",
		Columns: []string{"client pairs", "locking deadlocks", "locking fulfilled", "promises deadlocks", "promises fulfilled"},
	}
	for _, pairs := range clientPairs {
		// Locking.
		store, rm, err := newWorld(map[string]int64{"a": 1 << 40, "b": 1 << 40})
		if err != nil {
			return nil, err
		}
		lb := baseline.NewLocking(store, rm)
		lockDead, lockOK := e4Run(pairs, rounds, func(order []string) baseline.Outcome {
			out, _ := lb.RunMultiOrder(order, 1, func() { time.Sleep(time.Millisecond) })
			return out
		})
		// Promises.
		m, err := newPromiseWorld(map[string]int64{"a": 1 << 40, "b": 1 << 40}, core.Config{})
		if err != nil {
			return nil, err
		}
		pb := baseline.NewPromiseOrders(m)
		promDead, promOK := e4Run(pairs, rounds, func(order []string) baseline.Outcome {
			out, _ := pb.RunMultiOrder(order, 1, func() { time.Sleep(time.Millisecond) })
			return out
		})
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", pairs),
			fmt.Sprintf("%d", lockDead), fmt.Sprintf("%d", lockOK),
			fmt.Sprintf("%d", promDead), fmt.Sprintf("%d", promOK),
		})
	}
	tbl.Notes = "expected shape: promises deadlocks identically 0 at every scale"
	return tbl, nil
}

func e4Run(pairs, rounds int, run func(order []string) baseline.Outcome) (deadlocks, fulfilled int64) {
	var dead, ok atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		for _, order := range [][]string{{"a", "b"}, {"b", "a"}} {
			wg.Add(1)
			go func(order []string) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					switch run(order) {
					case baseline.Deadlocked:
						dead.Add(1)
					case baseline.Fulfilled:
						ok.Add(1)
					}
				}
			}(order)
		}
	}
	wg.Wait()
	return dead.Load(), ok.Load()
}
