package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/transport"
)

// RunE8 — atomic promise modification vs naive release-then-request.
// Claim (§4): "it would be too restrictive to force the service to honour
// the new guarantee as well as the previous one, nor would the client want
// to release the previous one until the new one was obtained" — the naive
// sequence opens a window where a rival takes the capacity and the client
// ends up with no guarantee at all.
func RunE8(quick bool) (*Table, error) {
	rounds := 300
	if quick {
		rounds = 80
	}
	tbl := &Table{
		ID:      "E8",
		Title:   "upgrading a $100 promise to $200 under contention (pool 200)",
		Claim:   "§4: modify must be atomic; release-then-request can strand the client with nothing",
		Columns: []string{"strategy", "upgraded", "kept old", "lost everything"},
	}
	for _, strategy := range []string{"atomic-modify", "release-then-request"} {
		var upgraded, keptOld, lost atomic.Int64
		for i := 0; i < rounds; i++ {
			m, err := newPromiseWorld(map[string]int64{"acct": 200}, core.Config{DefaultDuration: time.Hour})
			if err != nil {
				return nil, err
			}
			resp, err := m.Execute(context.Background(), requestQty("shop", "acct", 100))
			if err != nil {
				return nil, err
			}
			old := resp.Promises[0]
			// A rival races for 150 while the shop upgrades 100 -> 200.
			// Random jitter on both sides makes the interleaving genuine;
			// in a real deployment the gap between the shop's two messages
			// is a network round trip.
			var wg sync.WaitGroup
			wg.Add(2)
			jitter := func(i int) { time.Sleep(time.Duration(i%7) * 40 * time.Microsecond) }
			go func() {
				defer wg.Done()
				jitter(i + 3)
				_, _ = m.Execute(context.Background(), requestQty("rival", "acct", 150))
			}()
			go func() {
				defer wg.Done()
				jitter(i)
				switch strategy {
				case "atomic-modify":
					resp, err := m.Execute(context.Background(), core.Request{Client: "shop", PromiseRequests: []core.PromiseRequest{{
						Predicates: []core.Predicate{core.Quantity("acct", 200)},
						Releases:   []string{old.PromiseID},
					}}})
					if err != nil {
						lost.Add(1)
						return
					}
					if resp.Promises[0].Accepted {
						upgraded.Add(1)
					} else {
						keptOld.Add(1) // old promise retained on rejection
					}
				default:
					// Naive: release first, then request the bigger promise.
					// The window between the two messages is where the
					// rival can take the freed capacity.
					if _, err := m.Execute(context.Background(), core.Request{Client: "shop",
						Env: []core.EnvEntry{{PromiseID: old.PromiseID, Release: true}}}); err != nil {
						lost.Add(1)
						return
					}
					time.Sleep(120 * time.Microsecond)
					resp, err := m.Execute(context.Background(), requestQty("shop", "acct", 200))
					if err != nil {
						lost.Add(1)
						return
					}
					if resp.Promises[0].Accepted {
						upgraded.Add(1)
					} else {
						lost.Add(1) // old gone, new rejected: no guarantee left
					}
				}
			}()
			wg.Wait()
		}
		tbl.Rows = append(tbl.Rows, []string{
			strategy,
			fmt.Sprintf("%d", upgraded.Load()),
			fmt.Sprintf("%d", keptOld.Load()),
			fmt.Sprintf("%d", lost.Load()),
		})
	}
	tbl.Notes = "expected shape: atomic-modify never loses everything; the naive strategy does whenever the rival wins the race"
	return tbl, nil
}

// RunE9 — the post-action check ablation. Claim (§8): "the promise manager
// cannot rely on the application code being always well-behaved, so the
// promise manager also has to check for consistency after an action"; with
// the check disabled, ill-behaved actions corrupt promised availability.
func RunE9(quick bool) (*Table, error) {
	rogues := 50
	if quick {
		rogues = 15
	}
	tbl := &Table{
		ID:      "E9",
		Title:   "50 rogue drain actions against a pool with an 80% promise outstanding",
		Claim:   "§8: post-action checking catches ill-behaved applications; the ablation silently breaks promises",
		Columns: []string{"post-check", "actions rolled back", "actions committed", "final invariant"},
	}
	for _, disable := range []bool{false, true} {
		m, err := newPromiseWorld(map[string]int64{"stock": 100}, core.Config{
			DisablePostCheck: disable, DefaultDuration: time.Hour,
		})
		if err != nil {
			return nil, err
		}
		if _, err := m.Execute(context.Background(), requestQty("holder", "stock", 80)); err != nil {
			return nil, err
		}
		var rolledBack, committed int
		for i := 0; i < rogues; i++ {
			resp, err := m.Execute(context.Background(), core.Request{
				Client: "rogue",
				Action: func(ac *core.ActionContext) (any, error) {
					_, err := ac.Resources.AdjustPool(ac.Tx, "stock", -3)
					return nil, err
				},
			})
			if err != nil {
				return nil, err
			}
			if resp.ActionErr != nil {
				rolledBack++
			} else {
				committed++
			}
		}
		// Final invariant: on-hand must cover the outstanding promise.
		p, err := m.Resources().Pool(m.Store().Snapshot(), "stock")
		if err != nil {
			return nil, err
		}
		invariant := "HELD"
		if p.OnHand < 80 {
			invariant = fmt.Sprintf("BROKEN (on hand %d < promised 80)", p.OnHand)
		}
		mode := "enabled"
		if disable {
			mode = "disabled (ablation)"
		}
		tbl.Rows = append(tbl.Rows, []string{
			mode, fmt.Sprintf("%d", rolledBack), fmt.Sprintf("%d", committed), invariant,
		})
	}
	tbl.Notes = "expected shape: enabled = all violating drains rolled back, invariant HELD; disabled = drains commit until the pool is under-promised"
	return tbl, nil
}

// RunE10 — protocol overhead and the value of piggybacking. Claim (§2,
// §6): promise elements ride in message headers; combining a promise
// release with the application request halves the message count of the
// purchase step.
func RunE10(quick bool) (*Table, error) {
	iters := 2000
	httpIters := 150
	if quick {
		iters = 400
		httpIters = 50
	}
	tbl := &Table{
		ID:      "E10",
		Title:   "protocol envelope cost and piggybacked vs separate messages",
		Claim:   "§6: promise headers are cheap; piggybacking release+action saves a round trip",
		Columns: []string{"metric", "value"},
	}
	// Envelope encode/decode microbenchmarks at three predicate counts.
	for _, n := range []int{1, 10, 100} {
		env := &protocol.Envelope{Header: protocol.Header{Client: "c", Promise: &protocol.PromiseHeader{}}}
		for i := 0; i < n; i++ {
			env.Header.Promise.Requests = append(env.Header.Promise.Requests, protocol.WireRequest{
				ID: fmt.Sprintf("r%d", i),
				Predicates: []protocol.WirePredicate{
					{View: "anonymous", Pool: "pink-widgets", Qty: 5},
				},
			})
		}
		var buf bytes.Buffer
		start := time.Now()
		for i := 0; i < iters; i++ {
			buf.Reset()
			if err := protocol.Encode(&buf, env); err != nil {
				return nil, err
			}
			if _, err := protocol.Decode(bytes.NewReader(buf.Bytes())); err != nil {
				return nil, err
			}
		}
		per := time.Since(start) / time.Duration(iters)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("encode+decode, %d requests", n),
			fmt.Sprintf("%v (%d bytes)", per, buf.Len()),
		})
	}

	// Piggybacked vs separate purchase over a live server.
	m, err := newPromiseWorld(map[string]int64{"w": 1 << 40}, core.Config{DefaultDuration: time.Hour})
	if err != nil {
		return nil, err
	}
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	srv := httptest.NewServer(transport.NewServer(m, reg).Handler())
	defer srv.Close()
	c := &transport.Client{BaseURL: srv.URL, Client: "c"}

	grantIDs := make([]string, 0, 2*httpIters)
	for i := 0; i < 2*httpIters; i++ {
		pr, err := c.RequestPromise(context.Background(), []core.Predicate{core.Quantity("w", 1)}, time.Hour)
		if err != nil || !pr.Accepted {
			return nil, fmt.Errorf("seed grant: %v %v", pr, err)
		}
		grantIDs = append(grantIDs, pr.PromiseID)
	}
	// Separate: action message then release message (2 round trips).
	start := time.Now()
	for i := 0; i < httpIters; i++ {
		id := grantIDs[i]
		if _, err := c.Invoke(context.Background(), []core.EnvEntry{{PromiseID: id}}, "adjust-pool",
			map[string]string{"pool": "w", "delta": "-1"}); err != nil {
			return nil, err
		}
		if err := c.Release(context.Background(), "", id); err != nil {
			return nil, err
		}
	}
	separate := time.Since(start) / time.Duration(httpIters)
	// Piggybacked: one message with release option set (1 round trip).
	start = time.Now()
	for i := 0; i < httpIters; i++ {
		id := grantIDs[httpIters+i]
		if _, err := c.Invoke(context.Background(), []core.EnvEntry{{PromiseID: id, Release: true}}, "adjust-pool",
			map[string]string{"pool": "w", "delta": "-1"}); err != nil {
			return nil, err
		}
	}
	piggy := time.Since(start) / time.Duration(httpIters)
	tbl.Rows = append(tbl.Rows,
		[]string{"purchase+release, separate messages", separate.String()},
		[]string{"purchase+release, piggybacked", piggy.String()},
		[]string{"piggyback saving", fmt.Sprintf("%.1f%%", 100*(1-float64(piggy)/float64(separate)))},
	)
	tbl.Notes = "expected shape: piggybacked ≈ half the separate-message latency (one round trip instead of two)"
	return tbl, nil
}

// RunE11 — delegation chains. Claim (§5): promises can be backed by the
// promises of third parties (merchant → distributor → …); grants succeed
// across the chain and latency grows linearly with depth.
func RunE11(quick bool) (*Table, error) {
	depths := []int{1, 2, 4, 8}
	if quick {
		depths = []int{1, 2, 4}
	}
	tbl := &Table{
		ID:      "E11",
		Title:   "delegated grants across supplier chains (stock only at the chain's far end)",
		Claim:   "§5: a promise can rely on the promises of third parties",
		Columns: []string{"chain depth", "grant ok", "µs/grant+release", "upstream promises created"},
	}
	for _, depth := range depths {
		// Build chain: m[0] is the merchant, m[depth] holds all stock.
		managers := make([]*core.Manager, depth+1)
		var err error
		managers[depth], err = newPromiseWorld(map[string]int64{"w": 1 << 30}, core.Config{DefaultDuration: time.Hour})
		if err != nil {
			return nil, err
		}
		for i := depth - 1; i >= 0; i-- {
			managers[i], err = newPromiseWorld(map[string]int64{"w": 0}, core.Config{
				DefaultDuration: time.Hour,
				Suppliers: map[string]core.Supplier{
					"w": &core.ManagerSupplier{M: managers[i+1], Client: fmt.Sprintf("tier-%d", i)},
				},
			})
			if err != nil {
				return nil, err
			}
		}
		const k = 20
		start := time.Now()
		ok := true
		for i := 0; i < k; i++ {
			resp, err := managers[0].Execute(context.Background(), requestQty("customer", "w", 5))
			if err != nil {
				return nil, err
			}
			pr := resp.Promises[0]
			if !pr.Accepted {
				ok = false
				break
			}
			if _, err := managers[0].Execute(context.Background(), core.Request{
				Client: "customer",
				Env:    []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
			}); err != nil {
				return nil, err
			}
		}
		per := float64(time.Since(start).Microseconds()) / float64(k)
		// Count upstream promise traffic at the deepest tier.
		upstream := allPromiseCount(managers[depth])
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%v", ok),
			fmt.Sprintf("%.0f", per),
			fmt.Sprintf("%d", upstream),
		})
	}
	tbl.Notes = "expected shape: grants succeed at every depth; latency grows roughly linearly with depth"
	return tbl, nil
}

// allPromiseCount counts every promise row (any state) in m's tables.
func allPromiseCount(m *core.Manager) int {
	snap := m.Store().Snapshot()
	return snap.Len(core.TablePromises) + snap.Len(core.TablePromisesDone)
}
