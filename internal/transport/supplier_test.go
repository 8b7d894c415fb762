package transport_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/transport"
	"repro/promises"
)

// TestRemoteSupplierConsume ships a backorder under a promise held on a
// distributor daemon reached over HTTP: the distributor's pool draws down
// by exactly the consumed quantity, the promise is released with it, and an
// id the supplier never obtained is refused.
func TestRemoteSupplierConsume(t *testing.T) {
	distributor, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { distributor.Close() })
	if err := distributor.CreatePool("w", 10, nil); err != nil {
		t.Fatal(err)
	}
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	srv := httptest.NewServer(transport.NewServer(distributor, reg).Handler())
	t.Cleanup(srv.Close)

	ctx := context.Background()
	sup := &promises.EngineSupplier{E: &transport.Client{BaseURL: srv.URL, Client: "m"}, Client: "m"}
	id, err := sup.RequestPromise(ctx, "w", 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.ConsumePromise(ctx, id, 4); err != nil {
		t.Fatal(err)
	}
	if onHand, err := distributor.PoolLevel("w"); err != nil || onHand != 6 {
		t.Fatalf("distributor on hand = %d (%v), want 6", onHand, err)
	}
	info, err := distributor.PromiseInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != core.Released {
		t.Fatalf("consumed promise state = %v, want released", info.State)
	}
	if err := sup.ConsumePromise(ctx, "up-unknown", 1); err == nil {
		t.Fatal("unknown upstream promise consumed")
	}
}
