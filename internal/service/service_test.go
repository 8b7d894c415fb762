package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/resource"
)

func newWorld(t *testing.T) (*Registry, *core.Manager) {
	t.Helper()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CreatePool("w", 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateInstance("i", nil); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	RegisterStandard(reg)
	return reg, m
}

// invoke runs a registered handler through the manager, as transport does.
func invoke(t *testing.T, reg *Registry, m *core.Manager, name string, params map[string]string) (string, error) {
	t.Helper()
	h, err := reg.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Execute(bg, core.Request{
		Client: "tester",
		Action: func(ac *core.ActionContext) (any, error) {
			return h(params, ac)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		return "", resp.ActionErr
	}
	return resp.ActionResult.(string), nil
}

func TestResolveUnknown(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Resolve("nope"); err == nil {
		t.Fatal("unknown action resolved")
	}
}

func TestNames(t *testing.T) {
	reg, _ := newWorld(t)
	names := reg.Names()
	want := []string{"adjust-pool", "pool-level", "release-instance", "take-instance"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v", names)
	}
}

func TestRegisterReplaces(t *testing.T) {
	reg := NewRegistry()
	reg.Register("x", func(map[string]string, *core.ActionContext) (string, error) { return "1", nil })
	reg.Register("x", func(map[string]string, *core.ActionContext) (string, error) { return "2", nil })
	h, _ := reg.Resolve("x")
	got, _ := h(nil, nil)
	if got != "2" {
		t.Fatalf("handler not replaced: %q", got)
	}
}

func TestAdjustPoolAndLevel(t *testing.T) {
	reg, m := newWorld(t)
	out, err := invoke(t, reg, m, "adjust-pool", map[string]string{"pool": "w", "delta": "-4"})
	if err != nil || out != "6" {
		t.Fatalf("adjust: %q %v", out, err)
	}
	out, err = invoke(t, reg, m, "pool-level", map[string]string{"pool": "w"})
	if err != nil || out != "6" {
		t.Fatalf("level: %q %v", out, err)
	}
	if _, err := invoke(t, reg, m, "adjust-pool", map[string]string{"pool": "w", "delta": "nan"}); err == nil {
		t.Fatal("bad delta accepted")
	}
	if _, err := invoke(t, reg, m, "adjust-pool", map[string]string{"pool": "w", "delta": "-100"}); err == nil {
		t.Fatal("overdraw accepted")
	}
	if _, err := invoke(t, reg, m, "pool-level", map[string]string{"pool": "ghost"}); err == nil {
		t.Fatal("missing pool accepted")
	}
}

func TestTakeAndReleaseInstance(t *testing.T) {
	reg, m := newWorld(t)
	out, err := invoke(t, reg, m, "take-instance", map[string]string{"instance": "i"})
	if err != nil || out != "i" {
		t.Fatalf("take: %q %v", out, err)
	}
	if st := instanceStatus(t, m, "i"); st != resource.Taken {
		t.Fatalf("status = %v", st)
	}
	if _, err := invoke(t, reg, m, "release-instance", map[string]string{"instance": "i"}); err != nil {
		t.Fatal(err)
	}
	if st := instanceStatus(t, m, "i"); st != resource.Available {
		t.Fatalf("status after release = %v", st)
	}
}

// instanceStatus reads one instance's status from the manager's listing.
func instanceStatus(t *testing.T, m *core.Manager, id string) resource.Status {
	t.Helper()
	ins, err := m.Instances()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if in.ID == id {
			return in.Status
		}
	}
	t.Fatalf("instance %s not found", id)
	return 0
}

// TestHandlersConcurrentOnManager drives the standard handlers through a
// four-shard manager from many goroutines — the daemon's actual
// concurrent configuration. Each worker consumes stock from its own pool
// under promise protection; final levels must account for every unit.
func TestHandlersConcurrentOnManager(t *testing.T) {
	const workers = 8
	const iters = 40
	s, err := core.New(core.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	RegisterStandard(reg)
	pools := make([]string, workers)
	for w := range pools {
		pools[w] = fmt.Sprintf("stock-%d", w)
		if err := s.CreatePool(pools[w], iters, nil); err != nil {
			t.Fatal(err)
		}
	}

	adjust, err := reg.Resolve("adjust-pool")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := pools[w]
			client := fmt.Sprintf("svc-%d", w)
			params := map[string]string{"pool": pool, "delta": "-1"}
			for i := 0; i < iters; i++ {
				grant, err := s.Execute(bg, core.Request{Client: client, PromiseRequests: []core.PromiseRequest{{
					Predicates: []core.Predicate{core.Quantity(pool, 1)},
				}}})
				if err != nil {
					t.Error(err)
					return
				}
				pr := grant.Promises[0]
				if !pr.Accepted {
					t.Errorf("grant rejected: %s", pr.Reason)
					return
				}
				resp, err := s.Execute(bg, core.Request{
					Client:    client,
					Env:       []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
					Resources: []string{pool},
					Action: func(ac *core.ActionContext) (any, error) {
						return adjust(params, ac)
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.ActionErr != nil {
					t.Errorf("adjust-pool: %v", resp.ActionErr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, pool := range pools {
		lvl, err := s.PoolLevel(pool)
		if err != nil {
			t.Fatal(err)
		}
		if lvl != 0 {
			t.Errorf("pool %s level = %d, want 0", pool, lvl)
		}
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("audit unhealthy: %s", rep)
	}
}

var bg = context.Background()
