package transport

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// newOpsWorld serves a one-shard engine with one seeded pool and the
// standard actions.
func newOpsWorld(t *testing.T) (*httptest.Server, *core.Manager, *Client) {
	t.Helper()
	srv, m := newTestServer(t, func(m *core.Manager) error {
		return seedPool(m, "w", 20)
	})
	return srv, m, &Client{BaseURL: srv.URL, Client: "ops"}
}

func TestStatsEndpointContentTypeAndJSON(t *testing.T) {
	srv, _, c := newOpsWorld(t)

	// Generate some activity first.
	if _, err := c.Execute(bg, core.Request{PromiseRequests: []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity("w", 1)},
	}}}); err != nil {
		t.Fatal(err)
	}

	// Text form carries an explicit Content-Type.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text /stats Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "requests=") {
		t.Fatalf("text /stats body = %q", body)
	}

	// ?format=json yields machine-readable counters.
	resp, err = http.Get(srv.URL + "/stats?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json /stats Content-Type = %q", ct)
	}
	var st core.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 1 || st.Grants < 1 {
		t.Fatalf("scraped stats = %+v", st)
	}

	// The client face reads the same snapshot.
	cst, err := c.FetchStats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if cst.Grants != st.Grants {
		t.Fatalf("FetchStats grants = %d, scrape = %d", cst.Grants, st.Grants)
	}
}

func TestAuditEndpointContentTypeAndJSON(t *testing.T) {
	srv, _, c := newOpsWorld(t)

	resp, err := http.Get(srv.URL + "/audit")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text /audit Content-Type = %q", ct)
	}

	resp, err = http.Get(srv.URL + "/audit?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json /audit Content-Type = %q", ct)
	}
	var rep core.AuditReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("audit = %+v", rep)
	}

	// The Accept header negotiates JSON too.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/audit", nil)
	req.Header.Set("Accept", "application/json")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Accept-negotiated /audit Content-Type = %q", ct)
	}

	// And the client face decodes it into the same report type.
	crep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Healthy() {
		t.Fatalf("client audit = %+v", crep)
	}
}

// TestBatchReleasesAndActions exercises the extended §6 batch envelope: a
// whole §4 upgrade burst — grants with in-request releases, standalone
// releases, piggybacked actions under environments, and checks — in one
// round trip.
func TestBatchReleasesAndActions(t *testing.T) {
	_, _, c := newOpsWorld(t)

	// Seed two promises to operate on.
	grants, err := c.GrantBatch(bg, "", []core.PromiseRequest{
		{Predicates: []core.Predicate{core.Quantity("w", 4)}},
		{Predicates: []core.Predicate{core.Quantity("w", 3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grants {
		if !g.Accepted {
			t.Fatalf("seed grant %d rejected: %s", i, g.Reason)
		}
	}

	out, err := c.DoBatch(bg, "", Batch{
		// An upgrade grant that atomically releases the first promise.
		Grants: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Quantity("w", 6)},
			Releases:   []string{grants[0].PromiseID},
		}},
		// A standalone release of the second, plus one dead id whose
		// failure must not strand its neighbour.
		Releases: []string{grants[1].PromiseID, "prm-ghost"},
		// A piggybacked action: read the pool level.
		Actions: []BatchAction{{Name: "pool-level", Params: map[string]string{"pool": "w"}}},
		// Checks run last, observing this envelope's own releases.
		Checks: []string{grants[0].PromiseID, grants[1].PromiseID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Grants[0].Accepted {
		t.Fatalf("upgrade grant rejected: %s", out.Grants[0].Reason)
	}
	if out.ReleaseErrs[0] != nil {
		t.Fatalf("standalone release failed: %v", out.ReleaseErrs[0])
	}
	if !errors.Is(out.ReleaseErrs[1], core.ErrPromiseNotFound) {
		t.Fatalf("ghost release = %v, want not-found", out.ReleaseErrs[1])
	}
	if out.Actions[0].Err != nil || out.Actions[0].Result != "20" {
		t.Fatalf("piggybacked pool-level = %+v", out.Actions[0])
	}
	if !errors.Is(out.CheckErrs[0], core.ErrPromiseReleased) {
		t.Fatalf("check of upgraded-away promise = %v, want released", out.CheckErrs[0])
	}
	if !errors.Is(out.CheckErrs[1], core.ErrPromiseReleased) {
		t.Fatalf("check of batch-released promise = %v, want released", out.CheckErrs[1])
	}

	// Only the new 6-unit promise holds: 20 - 6 leaves 14.
	pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("w", 14)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Accepted {
		t.Fatalf("capacity wrong after batch burst: %s", pr.Reason)
	}
}

// TestBatchActionWithEnvReleases: a piggybacked action's environment release
// applies atomically with the action — the §4 purchase inside a batch.
func TestBatchActionWithEnvReleases(t *testing.T) {
	_, m, c := newOpsWorld(t)

	pr, err := c.RequestPromise(bg, []core.Predicate{core.Quantity("w", 5)}, time.Minute)
	if err != nil || !pr.Accepted {
		t.Fatalf("grant: %v %+v", err, pr)
	}
	out, err := c.DoBatch(bg, "", Batch{
		Actions: []BatchAction{{
			Name:   "adjust-pool",
			Params: map[string]string{"pool": "w", "delta": "-5"},
			Env:    []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Actions[0].Err != nil || out.Actions[0].Result != "15" {
		t.Fatalf("purchase action = %+v", out.Actions[0])
	}
	info, err := m.PromiseInfo(pr.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != core.Released {
		t.Fatalf("promise state after batch purchase = %v, want released", info.State)
	}
}

// TestClientRejectsClosureActions: function actions cannot cross the wire
// and must fail loudly, not silently drop.
func TestClientRejectsClosureActions(t *testing.T) {
	_, _, c := newOpsWorld(t)
	_, err := c.Execute(bg, core.Request{
		Action: func(ac *core.ActionContext) (any, error) { return nil, nil },
	})
	if !errors.Is(err, core.ErrBadRequest) {
		t.Fatalf("closure action over the wire = %v, want bad-request", err)
	}
}

// TestUnknownActionNameParity: an unknown ActionName is ErrBadRequest on a
// local engine, and must round-trip onto the same sentinel over the wire —
// the unified-Engine error contract.
func TestUnknownActionNameParity(t *testing.T) {
	_, m, c := newOpsWorld(t)

	_, errL := m.Execute(bg, core.Request{Client: "ops", ActionName: "launch-missiles"})
	_, errR := c.Execute(bg, core.Request{Client: "ops", ActionName: "launch-missiles"})
	if !errors.Is(errL, core.ErrBadRequest) {
		t.Fatalf("local unknown action = %v, want bad-request", errL)
	}
	if !errors.Is(errR, core.ErrBadRequest) {
		t.Fatalf("wire unknown action = %v, want bad-request", errR)
	}

	// Missing client is the other top-level bad-request class; a Client
	// with no bound identity sends it through unstamped.
	bare := &Client{BaseURL: c.BaseURL}
	_, errL = m.Execute(bg, core.Request{})
	_, errR = bare.Execute(bg, core.Request{})
	if !errors.Is(errL, core.ErrBadRequest) || !errors.Is(errR, core.ErrBadRequest) {
		t.Fatalf("missing client: local=%v wire=%v, want bad-request on both", errL, errR)
	}
}

// TestExecuteValidatesResponseCount: a 200 reply missing promise responses
// must surface as an error, not an index-out-of-range at the call site.
func TestExecuteValidatesResponseCount(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/xml")
		io.WriteString(w, `<?xml version="1.0" encoding="UTF-8"?><envelope><header></header><body></body></envelope>`)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Client: "x"}
	_, err := c.Execute(bg, core.Request{PromiseRequests: []core.PromiseRequest{{
		Predicates: []core.Predicate{core.Quantity("w", 1)},
	}}})
	if err == nil || !strings.Contains(err.Error(), "promise responses") {
		t.Fatalf("headerless reply = %v, want response-count error", err)
	}
}
