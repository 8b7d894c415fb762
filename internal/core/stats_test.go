package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/txn"
)

func TestStatsCountOutcomes(t *testing.T) {
	m, fake := newManager(t, Config{DefaultDuration: time.Minute})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})

	// 1 grant, 1 rejection.
	ok := grantOne(t, m, requestQuantity("c", "p", 6))
	_ = grantOne(t, m, requestQuantity("c", "p", 6))

	// 1 release.
	if _, err := m.Execute(bg, Request{Client: "c", Env: []EnvEntry{{PromiseID: ok.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	// 1 action error.
	if _, err := m.Execute(bg, Request{Client: "c", Action: func(ac *ActionContext) (any, error) {
		return nil, errors.New("boom")
	}}); err != nil {
		t.Fatal(err)
	}
	// 1 violation.
	_ = grantOne(t, m, requestQuantity("c", "p", 10))
	resp, err := m.Execute(bg, Request{Client: "c", Action: func(ac *ActionContext) (any, error) {
		_, err := ac.Resources.AdjustPool(ac.Tx, "p", -1)
		return nil, err
	}})
	if err != nil || !errors.Is(resp.ActionErr, ErrPromiseViolated) {
		t.Fatalf("setup violation: %v %v", err, resp.ActionErr)
	}
	// 1 expiration.
	fake.Advance(2 * time.Minute)

	s := m.Stats()
	if s.Grants != 2 || s.Rejections != 1 {
		t.Fatalf("grants/rejections = %d/%d", s.Grants, s.Rejections)
	}
	if s.Releases != 1 {
		t.Fatalf("releases = %d", s.Releases)
	}
	if s.Expirations != 1 {
		t.Fatalf("expirations = %d", s.Expirations)
	}
	if s.Violations != 1 || s.ActionErrors != 1 {
		t.Fatalf("violations/actionErrs = %d/%d", s.Violations, s.ActionErrors)
	}
	if s.Requests != 6 {
		t.Fatalf("requests = %d", s.Requests)
	}
	if s.Latency.Count != 6 || s.Latency.P99 <= 0 {
		t.Fatalf("latency = %+v", s.Latency)
	}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}

func TestStatsModifyCountsReleaseAndGrant(t *testing.T) {
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	pr := grantOne(t, m, requestQuantity("c", "p", 3))
	_ = grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("p", 5)},
		Releases:   []string{pr.PromiseID},
	}}})
	s := m.Stats()
	if s.Grants != 2 || s.Releases != 1 {
		t.Fatalf("stats after modify: %s", s)
	}
}

func TestStatsViolationRollbackDoesNotCountRelease(t *testing.T) {
	// An atomic purchase whose post-check fails rolls back the env
	// release; the release counter must not tick.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreatePool(tx, "p", 10, nil)
	})
	mine := grantOne(t, m, requestQuantity("me", "p", 2))
	_ = grantOne(t, m, requestQuantity("other", "p", 8))
	// Buying 3 under a 2-unit promise violates the other promise.
	resp, err := m.Execute(bg, Request{
		Client: "me",
		Env:    []EnvEntry{{PromiseID: mine.PromiseID, Release: true}},
		Action: func(ac *ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, "p", -3)
			return nil, err
		},
	})
	if err != nil || !errors.Is(resp.ActionErr, ErrPromiseViolated) {
		t.Fatalf("%v %v", err, resp.ActionErr)
	}
	s := m.Stats()
	if s.Releases != 0 {
		t.Fatalf("rolled-back release counted: %s", s)
	}
	if info, _ := m.PromiseInfo(mine.PromiseID); info.State != Active {
		t.Fatalf("promise state = %v", info.State)
	}
}
