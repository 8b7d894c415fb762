package promises_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
	"repro/promises"
)

// openLocal builds a local engine (shape chosen by opts) with one pool.
func openLocal(t *testing.T, pool string, qty int64, opts ...promises.Option) promises.Engine {
	t.Helper()
	eng, err := promises.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	seeder, err := promises.Seed(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := seeder.CreatePool(pool, qty, nil); err != nil {
		t.Fatal(err)
	}
	return eng
}

// serveEngine exposes an engine over HTTP with the standard actions and
// returns a remote engine for it.
func serveEngine(t *testing.T, eng promises.Engine, clientID string) promises.Engine {
	t.Helper()
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	srv := httptest.NewServer(transport.NewServer(eng.(transport.Engine), reg).Handler())
	t.Cleanup(srv.Close)
	remote, err := promises.Open(promises.WithRemote(srv.URL), promises.WithClientID(clientID))
	if err != nil {
		t.Fatal(err)
	}
	return remote
}

// TestEngineInterchangeability drives one scripted client workload through
// all three engine shapes — single store, sharded, remote — with the exact
// same call sites, and asserts identical outcomes.
func TestEngineInterchangeability(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(t *testing.T) promises.Engine
	}{
		{"single", func(t *testing.T) promises.Engine {
			return openLocal(t, "w", 10, promises.WithStandardActions())
		}},
		{"sharded", func(t *testing.T) promises.Engine {
			return openLocal(t, "w", 10, promises.WithShards(4), promises.WithStandardActions())
		}},
		{"remote", func(t *testing.T) promises.Engine {
			return serveEngine(t, openLocal(t, "w", 10), "c")
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			ctx := context.Background()
			eng := shape.mk(t)

			// Grant, over-ask (rejection with counter), batch, check,
			// named action with atomic release — one script, any engine.
			resp, err := eng.Execute(ctx, promises.Request{
				Client: "c",
				PromiseRequests: []promises.PromiseRequest{{
					Predicates: []promises.Predicate{promises.Quantity("w", 6)},
					Duration:   time.Minute,
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			held := resp.Promises[0]
			if !held.Accepted {
				t.Fatalf("grant rejected: %s", held.Reason)
			}

			resp, err = eng.Execute(ctx, promises.Request{
				Client: "c",
				PromiseRequests: []promises.PromiseRequest{{
					Predicates: []promises.Predicate{promises.Quantity("w", 9)},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			over := resp.Promises[0]
			if over.Accepted {
				t.Fatal("over-ask accepted")
			}
			if len(over.Counter) != 1 || over.Counter[0].Qty != 4 {
				t.Fatalf("counter-offer = %v, want 4 of w", over.Counter)
			}

			batch, err := eng.GrantBatch(ctx, "c", []promises.PromiseRequest{
				{Predicates: []promises.Predicate{promises.Quantity("w", 2)}},
				{Predicates: []promises.Predicate{promises.Quantity("w", 3)}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !batch[0].Accepted || batch[1].Accepted {
				t.Fatalf("batch = %+v (want grant, reject)", batch)
			}

			checks, err := eng.CheckBatch(ctx, "c", []string{held.PromiseID, batch[0].PromiseID, "prm-nope"})
			if err != nil {
				t.Fatal(err)
			}
			if checks[0] != nil || checks[1] != nil {
				t.Fatalf("live promises report %v / %v", checks[0], checks[1])
			}
			if !errors.Is(checks[2], promises.ErrPromiseNotFound) {
				t.Fatalf("ghost check = %v", checks[2])
			}

			// The named action runs under the environment and releases it
			// atomically — the closure-free form every engine serves.
			resp, err = eng.Execute(ctx, promises.Request{
				Client:       "c",
				Env:          []promises.EnvEntry{{PromiseID: held.PromiseID, Release: true}},
				ActionName:   "adjust-pool",
				ActionParams: map[string]string{"pool": "w", "delta": "-6"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.ActionErr != nil {
				t.Fatalf("purchase: %v", resp.ActionErr)
			}
			if s, _ := resp.ActionResult.(string); s != "4" {
				t.Fatalf("stock after purchase = %v, want 4", resp.ActionResult)
			}

			if err := eng.Release(ctx, "c", batch[0].PromiseID); err != nil {
				t.Fatal(err)
			}
			if err := eng.Release(ctx, "c", batch[0].PromiseID); !errors.Is(err, promises.ErrPromiseReleased) {
				t.Fatalf("double release = %v", err)
			}

			st := eng.Stats()
			if st.Grants < 2 {
				t.Fatalf("stats grants = %d", st.Grants)
			}
			rep, err := eng.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Healthy() {
				t.Fatalf("audit: %s", rep)
			}
		})
	}
}

// runDelegationChain is the one piece of delegation-chain code under test:
// it takes the upstream engine as a parameter, so swapping a local supplier
// for a remote one is a constructor change at the caller — zero changes
// here. It returns the merchant-side grant and the delegated quantity
// actually recorded.
func runDelegationChain(t *testing.T, upstream promises.Engine) (granted bool, delegated int64) {
	t.Helper()
	ctx := context.Background()
	supplier := &promises.EngineSupplier{E: upstream, Client: "merchant"}
	merchant := openLocal(t, "widgets", 3, promises.WithSuppliers(map[string]promises.Supplier{
		"widgets": supplier,
	}))

	resp, err := merchant.Execute(ctx, promises.Request{
		Client: "customer",
		PromiseRequests: []promises.PromiseRequest{{
			Predicates: []promises.Predicate{promises.Quantity("widgets", 8)},
			Duration:   time.Minute,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		return false, 0
	}
	info, err := merchant.(inspector).PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	// Ship the backorder through the supplier, then release the local part.
	if info.DelegatedQty[0] > 0 {
		if err := supplier.ConsumePromise(ctx, info.DelegatedID[0], info.DelegatedQty[0]); err != nil {
			t.Fatalf("backorder shipment: %v", err)
		}
	}
	if err := merchant.Release(ctx, "customer", pr.PromiseID); err != nil {
		t.Fatal(err)
	}
	return true, info.DelegatedQty[0]
}

// TestDelegationChainLocalRemoteSwap is the acceptance test for supplier
// interchangeability: the same delegation-chain code runs against an
// in-process upstream engine and a remote daemon, and behaves identically —
// including the upstream stock drawn down by the shipped backorder.
func TestDelegationChainLocalRemoteSwap(t *testing.T) {
	// Local upstream: the distributor engine is in-process. It resolves
	// the standard actions so ConsumePromise's adjust-pool runs.
	localUp := openLocal(t, "widgets", 100, promises.WithStandardActions())
	grantedL, delegatedL := runDelegationChain(t, localUp)

	// Remote upstream: the same distributor shape behind HTTP.
	remoteBacking := openLocal(t, "widgets", 100)
	remoteUp := serveEngine(t, remoteBacking, "merchant")
	grantedR, delegatedR := runDelegationChain(t, remoteUp)

	if !grantedL || !grantedR {
		t.Fatalf("grants diverged: local=%v remote=%v", grantedL, grantedR)
	}
	if delegatedL != 5 || delegatedR != 5 {
		t.Fatalf("delegated quantities = %d/%d, want 5/5", delegatedL, delegatedR)
	}
	// Both upstreams shipped the same backorder.
	lvlL, err := promisesSeederLevel(localUp, "widgets")
	if err != nil {
		t.Fatal(err)
	}
	lvlR, err := promisesSeederLevel(remoteBacking, "widgets")
	if err != nil {
		t.Fatal(err)
	}
	if lvlL != 95 || lvlR != 95 {
		t.Fatalf("upstream stock = %d/%d, want 95/95", lvlL, lvlR)
	}
	// And no upstream promise leaked on either path.
	for name, up := range map[string]promises.Engine{"local": localUp, "remote": remoteBacking} {
		rep, err := up.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Healthy() {
			t.Fatalf("%s upstream audit: %s", name, rep)
		}
		if list, _ := up.(inspector).ActivePromises(); len(list) != 0 {
			t.Fatalf("%s upstream leaked promises: %v", name, list)
		}
	}
}

func promisesSeederLevel(eng promises.Engine, pool string) (int64, error) {
	seeder, err := promises.Seed(eng)
	if err != nil {
		return 0, err
	}
	return seeder.PoolLevel(pool)
}

// TestEngineSupplierDelegationChain delegates a merchant's shortfall to a
// distributor daemon over HTTP: the distributor holds the upstream promise
// while the merchant's grant stands, and releasing the grant releases it.
func TestEngineSupplierDelegationChain(t *testing.T) {
	distributor := openLocal(t, "widgets", 10)
	sup := &promises.EngineSupplier{E: serveEngine(t, distributor, "merchant"), Client: "merchant"}
	merchant := openLocal(t, "widgets", 3, promises.WithSuppliers(map[string]promises.Supplier{"widgets": sup}))
	resp, err := merchant.Execute(bg, promises.Request{
		Client: "customer",
		PromiseRequests: []promises.PromiseRequest{{
			Predicates: []promises.Predicate{promises.Quantity("widgets", 8)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		t.Fatalf("delegated grant over HTTP rejected: %s", pr.Reason)
	}
	info, err := merchant.(inspector).PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.DelegatedQty[0] != 5 {
		t.Fatalf("delegated qty = %d, want 5", info.DelegatedQty[0])
	}
	up, err := distributor.(inspector).PromiseInfo(info.DelegatedID[0])
	if err != nil {
		t.Fatal(err)
	}
	if up.State != promises.Active {
		t.Fatalf("upstream state = %v, want active", up.State)
	}
	if err := merchant.Release(bg, "customer", pr.PromiseID); err != nil {
		t.Fatal(err)
	}
	if up, _ = distributor.(inspector).PromiseInfo(info.DelegatedID[0]); up.State != promises.Released {
		t.Fatalf("upstream after release = %v, want released", up.State)
	}
}

// TestEngineCancelledContext: the Engine contract's cancellation promise at
// the facade level — a dead context reaches no engine shape.
func TestEngineCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shape := range []struct {
		name string
		eng  promises.Engine
	}{
		{"single", openLocal(t, "w", 5)},
		{"sharded", openLocal(t, "w", 5, promises.WithShards(4))},
	} {
		if _, err := shape.eng.Execute(ctx, promises.Request{
			Client:          "c",
			PromiseRequests: []promises.PromiseRequest{{Predicates: []promises.Predicate{promises.Quantity("w", 1)}}},
		}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Execute on dead context = %v", shape.name, err)
		}
		if st := shape.eng.Stats(); st.Grants != 0 {
			t.Fatalf("%s: grants = %d after cancelled call", shape.name, st.Grants)
		}
	}
}

// TestOpenOptionValidation pins Open's option conflicts.
func TestOpenOptionValidation(t *testing.T) {
	if _, err := promises.Open(promises.WithRemote("http://x"), promises.WithShards(4)); err == nil ||
		!strings.Contains(err.Error(), "cannot combine") {
		t.Fatalf("remote+shards = %v", err)
	}
	if _, err := promises.Open(promises.WithHTTPClient(nil)); err != nil {
		// nil http client is the default; only a non-nil one requires remote.
		t.Fatalf("nil http client: %v", err)
	}
	if _, err := promises.Open(promises.WithActions(nil), promises.WithStandardActions()); err != nil {
		// nil resolver is the default; only a real one conflicts.
		t.Fatal(err)
	}
	eng, err := promises.Open(promises.WithRemote("http://localhost:1"), promises.WithClientID("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := promises.Seed(eng); err == nil {
		t.Fatal("remote engine must not seed locally")
	}
}
