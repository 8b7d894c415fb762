package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/promises"
)

// TestManagerSupplierConsume ships a backorder under a promise held on an
// in-process upstream manager: the pool draws down by exactly the consumed
// quantity, the promise is released with it, and an id the supplier never
// obtained is refused.
func TestManagerSupplierConsume(t *testing.T) {
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	distributor, err := core.New(core.Config{Actions: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { distributor.Close() })
	if err := distributor.CreatePool("w", 10, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sup := &promises.EngineSupplier{E: distributor, Client: "m"}
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
