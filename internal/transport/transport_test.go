package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
)

// newTestServer spins up a full Figure 2 deployment: PM + App + RM behind
// an HTTP test server.
func newTestServer(t *testing.T, seedFn func(m *core.Manager) error) (*httptest.Server, *core.Manager) {
	t.Helper()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if seedFn != nil {
		if err := seedFn(m); err != nil {
			t.Fatal(err)
		}
	}
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	srv := httptest.NewServer(NewServer(m, reg).Handler())
	t.Cleanup(srv.Close)
	return srv, m
}

func seedPool(m *core.Manager, pool string, qty int64) error {
	return m.CreatePool(pool, qty, nil)
}

func TestEndToEndFigure1OverHTTP(t *testing.T) {
	srv, m := newTestServer(t, func(m *core.Manager) error {
		return seedPool(m, "pink-widgets", 10)
	})
	c := &Client{BaseURL: srv.URL, Client: "order-process"}

	// Promise request.
	pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("pink-widgets", 5)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Accepted {
		t.Fatalf("rejected: %s", pr.Reason)
	}
	if pr.Expires.IsZero() {
		t.Fatal("expires not propagated")
	}

	// Purchase with atomic release, via the registered action.
	result, err := c.Invoke(bg,
		[]core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		"adjust-pool", map[string]string{"pool": "pink-widgets", "delta": "-5"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if result != "5" {
		t.Fatalf("new level = %q, want 5", result)
	}
	info, err := m.PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != core.Released {
		t.Fatalf("promise state = %v", info.State)
	}
}

func TestRejectionOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, func(m *core.Manager) error {
		return seedPool(m, "w", 3)
	})
	c := &Client{BaseURL: srv.URL, Client: "c"}
	pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("w", 5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Accepted {
		t.Fatal("over-grant over HTTP")
	}
	if !strings.Contains(pr.Reason, "available") {
		t.Fatalf("reason = %q", pr.Reason)
	}
}

func TestFaultMappingOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, func(m *core.Manager) error {
		return seedPool(m, "w", 3)
	})
	c := &Client{BaseURL: srv.URL, Client: "c"}
	// Using an unknown promise id yields a typed fault on the client side.
	_, err := c.Invoke(bg, []core.EnvEntry{{PromiseID: "prm-404"}}, "pool-level", map[string]string{"pool": "w"})
	if !errors.Is(err, core.ErrPromiseNotFound) {
		t.Fatalf("err = %v, want ErrPromiseNotFound", err)
	}
	// Releasing twice yields promise-released.
	pr, _ := c.RequestPromise(bg, []core.Predicate{core.Quantity("w", 1)}, 0)
	if err := c.Release(bg, "", pr.PromiseID); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(bg, "", pr.PromiseID); !errors.Is(err, core.ErrPromiseReleased) {
		t.Fatalf("double release err = %v", err)
	}
}

func TestViolationFaultOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, func(m *core.Manager) error {
		return seedPool(m, "w", 10)
	})
	holder := &Client{BaseURL: srv.URL, Client: "holder"}
	pr, err := holder.RequestPromise(bg, []core.Predicate{core.Quantity("w", 8)}, time.Minute)
	if err != nil || !pr.Accepted {
		t.Fatalf("setup: %v %v", pr, err)
	}
	rogue := &Client{BaseURL: srv.URL, Client: "rogue"}
	_, err = rogue.Invoke(bg, nil, "adjust-pool", map[string]string{"pool": "w", "delta": "-5"})
	if !errors.Is(err, core.ErrPromiseViolated) {
		t.Fatalf("err = %v, want ErrPromiseViolated", err)
	}
	// State intact.
	level, err := rogue.Invoke(bg, nil, "pool-level", map[string]string{"pool": "w"})
	if err != nil {
		t.Fatal(err)
	}
	if level != "10" {
		t.Fatalf("level = %q after rolled-back violation", level)
	}
}

func TestUnknownActionIs404(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	c := &Client{BaseURL: srv.URL, Client: "c"}
	_, err := c.Invoke(bg, nil, "launch-missiles", nil)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want 404", err)
	}
}

func TestMissingClientIsBadRequest(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	c := &Client{BaseURL: srv.URL, Client: ""}
	_, err := c.Exchange(bg, nil, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v, want 400", err)
	}
}

func TestMalformedEnvelopeIsBadRequest(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	resp, err := srv.Client().Post(srv.URL+Endpoint, "application/xml", strings.NewReader("<garbage"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestOpsEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, func(m *core.Manager) error {
		return seedPool(m, "w", 10)
	})
	c := &Client{BaseURL: srv.URL, Client: "c"}
	if _, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("w", 5)}, time.Minute); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	code, body := get("/stats")
	if code != 200 || !strings.Contains(body, "grants=1") {
		t.Fatalf("/stats: %d %q", code, body)
	}
	code, body = get("/audit")
	if code != 200 || !strings.Contains(body, "healthy") {
		t.Fatalf("/audit: %d %q", code, body)
	}
}

func TestPiggybackedGrantAndAction(t *testing.T) {
	// One message carrying both a promise request and an action (§6): the
	// action runs and the promise is granted in the same transaction.
	srv, _ := newTestServer(t, func(m *core.Manager) error {
		return seedPool(m, "w", 10)
	})
	c := &Client{BaseURL: srv.URL, Client: "c"}
	res, err := c.Exchange(bg,
		[]core.PromiseRequest{{Predicates: []core.Predicate{core.Quantity("w", 3)}}},
		nil,
		&protocol.WireAction{Name: "pool-level", Params: []protocol.Param{{Name: "pool", Value: "w"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Promises) != 1 || !res.Promises[0].Accepted {
		t.Fatalf("promises = %+v", res.Promises)
	}
	if res.ActionErr != nil || res.ActionResult != "10" {
		t.Fatalf("action: %q %v", res.ActionResult, res.ActionErr)
	}
}

// TestShardedServerConcurrentClients serves a sharded manager over HTTP —
// the daemon's production shape — and hammers it with parallel clients,
// each consuming its own pool under promise protection. The /audit
// endpoint must report healthy afterwards.
func TestShardedServerConcurrentClients(t *testing.T) {
	const workers = 8
	const iters = 25
	s, err := core.New(core.Config{Shards: 4, DefaultDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	pools := make([]string, workers)
	for w := range pools {
		pools[w] = fmt.Sprintf("wire-%d", w)
		if err := s.CreatePool(pools[w], iters, nil); err != nil {
			t.Fatal(err)
		}
	}
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	srv := httptest.NewServer(NewServer(s, reg).Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &Client{BaseURL: srv.URL, Client: fmt.Sprintf("http-%d", w)}
			pool := pools[w]
			for i := 0; i < iters; i++ {
				pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity(pool, 1)}, time.Hour)
				if err != nil {
					t.Error(err)
					return
				}
				if !pr.Accepted {
					t.Errorf("grant rejected: %s", pr.Reason)
					return
				}
				// The "pool" param routes the action to the owning shard.
				if _, err := c.Invoke(bg, []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
					"adjust-pool", map[string]string{"pool": pool, "delta": "-1"}); err != nil {
					t.Error(err)
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
	resp, err := srv.Client().Get(srv.URL + "/audit")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/audit = %d: %s", resp.StatusCode, body)
	}
}

func TestBatchOverHTTP(t *testing.T) {
	// One round trip carries a burst of grants (including a §4 upgrade
	// releasing an earlier promise) and a burst of usability checks.
	srv, _ := newTestServer(t, func(m *core.Manager) error {
		return seedPool(m, "bulk", 10)
	})
	c := &Client{BaseURL: srv.URL, Client: "loader"}

	first, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("bulk", 10)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Accepted {
		t.Fatalf("seed grant rejected: %s", first.Reason)
	}

	resps, err := c.GrantBatch(bg, "", []core.PromiseRequest{
		{RequestID: "up", Predicates: []core.Predicate{core.Quantity("bulk", 10)}, Releases: []string{first.PromiseID}},
		{RequestID: "no", Predicates: []core.Predicate{core.Quantity("bulk", 99)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("got %d responses", len(resps))
	}
	if !resps[0].Accepted {
		t.Fatalf("upgrade rejected over the wire: %s", resps[0].Reason)
	}
	if resps[0].Correlation != "up" || resps[0].Expires.IsZero() {
		t.Fatalf("response 0 = %+v", resps[0])
	}
	if resps[1].Accepted {
		t.Fatal("over-capacity batch entry granted")
	}

	checks, err := c.CheckBatch(bg, "", []string{resps[0].PromiseID, first.PromiseID, "prm-nope"})
	if err != nil {
		t.Fatal(err)
	}
	if checks[0] != nil {
		t.Fatalf("fresh promise unusable: %v", checks[0])
	}
	if !errors.Is(checks[1], core.ErrPromiseReleased) {
		t.Fatalf("upgraded-away promise reports %v, want ErrPromiseReleased", checks[1])
	}
	if !errors.Is(checks[2], core.ErrPromiseNotFound) {
		t.Fatalf("unknown promise reports %v, want ErrPromiseNotFound", checks[2])
	}
}

func TestBatchOverHTTPSharded(t *testing.T) {
	// The same envelope against a sharded engine: cross-shard batch entries
	// come back as composite promises and check correctly.
	s, err := core.New(core.Config{Shards: 4, DefaultDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	poolOn := func(shard int) string {
		for i := 0; ; i++ {
			name := fmt.Sprintf("bw-%d-%d", shard, i)
			if s.ShardOf(name) == shard {
				return name
			}
		}
	}
	a, b := poolOn(0), poolOn(3)
	for _, pool := range []string{a, b} {
		if err := s.CreatePool(pool, 10, nil); err != nil {
			t.Fatal(err)
		}
	}
	reg := service.NewRegistry()
	srv := httptest.NewServer(NewServer(s, reg).Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Client: "loader"}

	resps, err := c.GrantBatch(bg, "", []core.PromiseRequest{
		{RequestID: "solo", Predicates: []core.Predicate{core.Quantity(a, 2)}},
		{RequestID: "span", Predicates: []core.Predicate{core.Quantity(a, 2), core.Quantity(b, 2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].Accepted || !resps[1].Accepted {
		t.Fatalf("batch rejected: %q / %q", resps[0].Reason, resps[1].Reason)
	}
	if !strings.HasPrefix(resps[1].PromiseID, "shp-") {
		t.Fatalf("cross-shard batch entry id = %q, want composite", resps[1].PromiseID)
	}
	checks, err := c.CheckBatch(bg, "", []string{resps[0].PromiseID, resps[1].PromiseID})
	if err != nil {
		t.Fatal(err)
	}
	for i, cerr := range checks {
		if cerr != nil {
			t.Fatalf("batch promise %d unusable: %v", i, cerr)
		}
	}
}

func TestBatchCannotCombineWithAction(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	env := &protocol.Envelope{}
	env.Header.Batch = &protocol.BatchRequest{}
	env.Body.Action = &protocol.WireAction{Name: "adjust-pool"}
	c := &Client{BaseURL: srv.URL, Client: "loader"}
	if _, err := c.Do(bg, env); err == nil || !strings.Contains(err.Error(), "batch-request") {
		t.Fatalf("combined batch+action err = %v, want bad-request naming batch-request", err)
	}
}

var bg = context.Background()
