package promises_test

import (
	"errors"
	"testing"
	"time"

	"repro/promises"
)

func newSeeded(t *testing.T) *promises.Manager {
	t.Helper()
	e, err := promises.Open()
	if err != nil {
		t.Fatal(err)
	}
	m := e.(*promises.Manager)
	if err := m.CreatePool("pink-widgets", 10, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFacadeEndToEnd(t *testing.T) {
	m := newSeeded(t)
	resp, err := m.Execute(bg, promises.Request{
		Client: "order",
		PromiseRequests: []promises.PromiseRequest{{
			Predicates: []promises.Predicate{promises.Quantity("pink-widgets", 5)},
			Duration:   time.Minute,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		t.Fatal(pr.Reason)
	}
	resp, err = m.Execute(bg, promises.Request{
		Client: "order",
		Env:    []promises.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Action: func(ac *promises.ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, "pink-widgets", -5)
			return nil, err
		},
	})
	if err != nil || resp.ActionErr != nil {
		t.Fatalf("purchase: %v / %v", err, resp.ActionErr)
	}
}

func TestFacadeSentinelsMatchCore(t *testing.T) {
	m := newSeeded(t)
	resp, err := m.Execute(bg, promises.Request{
		Client: "c",
		Env:    []promises.EnvEntry{{PromiseID: "prm-404", Release: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, promises.ErrPromiseNotFound) {
		t.Fatalf("ActionErr = %v", resp.ActionErr)
	}
}

func TestFacadeConstructors(t *testing.T) {
	if p := promises.Quantity("p", 3); p.View != promises.AnonymousView {
		t.Fatal("Quantity view")
	}
	if p := promises.Named("i"); p.View != promises.NamedView {
		t.Fatal("Named view")
	}
	p, err := promises.Property("floor = 5")
	if err != nil || p.View != promises.PropertyView {
		t.Fatalf("Property: %v", err)
	}
	if _, err := promises.Property("(("); err == nil {
		t.Fatal("bad property accepted")
	}
	q, err := promises.FromExpr("acct", "balance >= 100")
	if err != nil || q.Qty != 100 {
		t.Fatalf("FromExpr: %+v %v", q, err)
	}
	if promises.MustProperty("view").View != promises.PropertyView {
		t.Fatal("MustProperty view")
	}
}

func TestFacadeClocks(t *testing.T) {
	fc := promises.FakeClock()
	before := fc.Now()
	fc.Advance(time.Hour)
	if !fc.Now().After(before) {
		t.Fatal("fake clock did not advance")
	}
	if promises.SystemClock().Now().IsZero() {
		t.Fatal("system clock zero")
	}
}
