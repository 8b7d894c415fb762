// Package integration_test exercises whole-system scenarios across the
// module boundaries: promise manager + protocol + transport + services +
// workflow + delegation, over real HTTP sockets — the Figure 2 deployment
// driven end to end.
package integration_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/predicate"
	"repro/internal/service"
	"repro/internal/transport"
	"repro/internal/workflow"
	"repro/promises"
)

// tier is one deployed promise manager with its HTTP server.
type tier struct {
	m   *core.Manager
	srv *httptest.Server
}

func newTier(t *testing.T, cfg core.Config, seed func(m *core.Manager) error) *tier {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seed != nil {
		if err := seed(m); err != nil {
			t.Fatal(err)
		}
	}
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	srv := httptest.NewServer(transport.NewServer(m, reg).Handler())
	t.Cleanup(srv.Close)
	return &tier{m: m, srv: srv}
}

func (tr *tier) client(name string) *transport.Client {
	return &transport.Client{BaseURL: tr.srv.URL, Client: name}
}

func auditHealthy(t *testing.T, label string, m *core.Manager) {
	t.Helper()
	rep, err := m.Audit()
	if err != nil {
		t.Fatalf("%s audit: %v", label, err)
	}
	if !rep.Healthy() {
		t.Fatalf("%s audit: %s", label, rep)
	}
}

// TestThreeTierSupplyChainOverHTTP builds factory → wholesaler → retailer,
// each in its own HTTP server, with delegation wired through
// promises.EngineSupplier over a transport.Client. An order at the retailer for more than local
// stock cascades upstream; fulfilment ships the backorder from the factory.
func TestThreeTierSupplyChainOverHTTP(t *testing.T) {
	factory := newTier(t, core.Config{}, func(m *core.Manager) error {
		return m.CreatePool("widgets", 1000, nil)
	})
	factorySup := &promises.EngineSupplier{E: factory.client("wholesaler"), Client: "wholesaler"}
	wholesaler := newTier(t, core.Config{
		Suppliers: map[string]core.Supplier{"widgets": factorySup},
	}, func(m *core.Manager) error {
		return m.CreatePool("widgets", 20, nil)
	})
	wholesalerSup := &promises.EngineSupplier{E: wholesaler.client("retailer"), Client: "retailer"}
	retailer := newTier(t, core.Config{
		Suppliers: map[string]core.Supplier{"widgets": wholesalerSup},
	}, func(m *core.Manager) error {
		return m.CreatePool("widgets", 5, nil)
	})

	// Customer orders 30: retailer has 5, wholesaler 20, factory covers
	// the last 5 through the second delegation hop.
	cust := retailer.client("customer")
	pr, err := cust.RequestPromise(bg, []core.Predicate{core.Quantity("widgets", 30)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Accepted {
		t.Fatalf("chain grant rejected: %s", pr.Reason)
	}
	// Retailer's promise delegates 25 to the wholesaler...
	info, err := retailer.m.PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.DelegatedQty[0] != 25 {
		t.Fatalf("retailer delegated %d, want 25", info.DelegatedQty[0])
	}
	// ...and the wholesaler's upstream promise delegates 5 to the factory.
	wInfo, err := wholesaler.m.PromiseInfo(info.DelegatedID[0])
	if err != nil {
		t.Fatal(err)
	}
	if wInfo.DelegatedQty[0] != 5 {
		t.Fatalf("wholesaler delegated %d, want 5", wInfo.DelegatedQty[0])
	}

	// Purchase: the retailer ships its 5 under the promise with atomic
	// release; upstream releases propagate over HTTP after commit.
	if _, err := cust.Invoke(bg,
		[]core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		"adjust-pool", map[string]string{"pool": "widgets", "delta": "-5"},
	); err != nil {
		t.Fatal(err)
	}
	// Upstream promise released across the chain.
	wInfo, _ = wholesaler.m.PromiseInfo(info.DelegatedID[0])
	if wInfo.State != core.Released {
		t.Fatalf("wholesaler promise state = %v", wInfo.State)
	}
	auditHealthy(t, "retailer", retailer.m)
	auditHealthy(t, "wholesaler", wholesaler.m)
	auditHealthy(t, "factory", factory.m)
}

// TestWorkflowDrivenOrderOverHTTP runs the Figure 1 workflow with every
// interaction crossing the wire.
func TestWorkflowDrivenOrderOverHTTP(t *testing.T) {
	shop := newTier(t, core.Config{}, func(m *core.Manager) error {
		return m.CreatePool("widgets", 10, nil)
	})
	c := shop.client("order-1")

	def := &workflow.Definition{
		Name:  "http-order",
		Start: "reserve",
		Steps: map[string]workflow.StepFunc{
			"reserve": func(wc *workflow.Context) (workflow.Transition, error) {
				pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("widgets", 4)}, time.Minute)
				if err != nil {
					return workflow.Transition{}, err
				}
				if !pr.Accepted {
					return workflow.Transition{}, fmt.Errorf("unavailable: %s", pr.Reason)
				}
				wc.Vars["promise"] = pr.PromiseID
				return workflow.WaitFor("payment", "fulfil"), nil
			},
			"fulfil": func(wc *workflow.Context) (workflow.Transition, error) {
				level, err := c.Invoke(bg,
					[]core.EnvEntry{{PromiseID: wc.Vars["promise"].(string), Release: true}},
					"adjust-pool", map[string]string{"pool": "widgets", "delta": "-4"},
				)
				if err != nil {
					return workflow.Transition{}, err
				}
				wc.Vars["level"] = level
				return workflow.Done(), nil
			},
		},
	}
	in, err := workflow.NewInstance(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Status() != workflow.Waiting {
		t.Fatalf("status = %v", in.Status())
	}
	if err := in.Deliver("payment", nil); err != nil {
		t.Fatal(err)
	}
	if in.Status() != workflow.Completed || in.Vars()["level"] != "6" {
		t.Fatalf("status=%v level=%v", in.Status(), in.Vars()["level"])
	}
	auditHealthy(t, "shop", shop.m)
}

// TestPropertyPredicatesOverWire sends §3.3 property expressions through
// the XML protocol and checks tentative reallocation happens server-side.
func TestPropertyPredicatesOverWire(t *testing.T) {
	hotel := newTier(t, core.Config{}, func(m *core.Manager) error {
		if err := m.CreateInstance("room-316", map[string]predicate.Value{
			"floor": predicate.Int(3), "view": predicate.Bool(true),
		}); err != nil {
			return err
		}
		return m.CreateInstance("room-512", map[string]predicate.Value{
			"floor": predicate.Int(5), "view": predicate.Bool(true),
		})
	})
	viewPred, err := core.Property("view = true")
	if err != nil {
		t.Fatal(err)
	}
	fifthPred, err := core.Property("floor = 5")
	if err != nil {
		t.Fatal(err)
	}
	alice := hotel.client("alice")
	bob := hotel.client("bob")
	prView, err := alice.RequestPromise(bg, []core.Predicate{viewPred}, time.Minute)
	if err != nil || !prView.Accepted {
		t.Fatalf("view: %+v %v", prView, err)
	}
	prFifth, err := bob.RequestPromise(bg, []core.Predicate{fifthPred}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !prFifth.Accepted {
		t.Fatalf("5th-floor over wire rejected: %s", prFifth.Reason)
	}
	fi, _ := hotel.m.PromiseInfo(prFifth.PromiseID)
	if fi.Assigned[0] != "room-512" {
		t.Fatalf("assigned %q", fi.Assigned[0])
	}
	auditHealthy(t, "hotel", hotel.m)
}

// TestExpiryOverHTTP: a promise granted with a short duration lapses; using
// it afterwards yields the promise-expired fault code across the wire.
func TestExpiryOverHTTP(t *testing.T) {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	shop := newTier(t, core.Config{Clock: fake}, func(m *core.Manager) error {
		return m.CreatePool("widgets", 10, nil)
	})
	c := shop.client("c")
	pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("widgets", 5)}, 30*time.Second)
	if err != nil || !pr.Accepted {
		t.Fatalf("%+v %v", pr, err)
	}
	fake.Advance(time.Minute)
	_, err = c.Invoke(bg, []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		"adjust-pool", map[string]string{"pool": "widgets", "delta": "-5"})
	if !errors.Is(err, core.ErrPromiseExpired) {
		t.Fatalf("err = %v, want ErrPromiseExpired", err)
	}
	// The expired hold no longer constrains the pool.
	pr2, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("widgets", 10)}, time.Minute)
	if err != nil || !pr2.Accepted {
		t.Fatalf("after expiry: %+v %v", pr2, err)
	}
}

// TestHTTPStampedeRespectsCapacity: 40 concurrent wire clients race for 25
// units; exactly 25 single-unit promises are granted.
func TestHTTPStampedeRespectsCapacity(t *testing.T) {
	shop := newTier(t, core.Config{}, func(m *core.Manager) error {
		return m.CreatePool("seats", 25, nil)
	})
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := shop.client(fmt.Sprintf("c%d", i))
			pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("seats", 1)}, time.Minute)
			if err != nil {
				t.Error(err)
				return
			}
			if pr.Accepted {
				granted.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if granted.Load() != 25 {
		t.Fatalf("granted %d over capacity 25", granted.Load())
	}
	auditHealthy(t, "shop", shop.m)
}

// TestFacadeNegotiationAgainstLiveContention ties the Negotiate helper to a
// contended manager: the picky client's wishes degrade until a counter
// offer closes the deal.
func TestFacadeNegotiationAgainstLiveContention(t *testing.T) {
	e, err := promises.Open()
	if err != nil {
		t.Fatal(err)
	}
	m := e.(*promises.Manager)
	if err := m.CreatePool("widgets", 20, nil); err != nil {
		t.Fatal(err)
	}
	// A rival promises 12, leaving 8.
	if _, err := m.Execute(bg, promises.Request{
		Client: "rival",
		PromiseRequests: []promises.PromiseRequest{{
			Predicates: []promises.Predicate{promises.Quantity("widgets", 12)},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := promises.Negotiate(bg, m, "picky", time.Minute, true,
		[]promises.Predicate{promises.Quantity("widgets", 20)},
		[]promises.Predicate{promises.Quantity("widgets", 15)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() || res.Attempt != 2 {
		t.Fatalf("negotiation = %+v", res)
	}
	info, _ := m.PromiseInfo(res.Response.PromiseID)
	if info.Predicates[0].Qty != 8 {
		t.Fatalf("settled quantity = %d, want 8", info.Predicates[0].Qty)
	}
}

var bg = context.Background()
