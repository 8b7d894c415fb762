package promises_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/predicate"
	"repro/promises"
)

func seedHotelAndStock(t *testing.T) *promises.Manager {
	t.Helper()
	e, err := promises.Open()
	if err != nil {
		t.Fatal(err)
	}
	m := e.(*promises.Manager)
	if err := m.CreatePool("widgets", 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateInstance("room-7", map[string]predicate.Value{
		"smoking": predicate.Bool(false),
		"view":    predicate.Bool(false),
		"beds":    predicate.Str("twin"),
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNegotiateFirstAlternativeWins(t *testing.T) {
	m := seedHotelAndStock(t)
	res, err := promises.Negotiate(bg, m, "c", time.Minute, false,
		[]promises.Predicate{promises.MustProperty(`beds = "twin"`)},
		[]promises.Predicate{promises.MustProperty("true")},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() || res.Attempt != 0 || len(res.Tried) != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestNegotiateFallsBackThroughWishes(t *testing.T) {
	// §3.3: non-smoking + view + twin -> non-smoking + twin -> twin.
	m := seedHotelAndStock(t)
	res, err := promises.Negotiate(bg, m, "c", time.Minute, false,
		[]promises.Predicate{promises.MustProperty(`not smoking and view and beds = "twin"`)},
		[]promises.Predicate{promises.MustProperty(`not smoking and beds = "twin"`)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() || res.Attempt != 1 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Tried) != 1 {
		t.Fatalf("tried = %v", res.Tried)
	}
}

func TestNegotiateAllRejected(t *testing.T) {
	m := seedHotelAndStock(t)
	res, err := promises.Negotiate(bg, m, "c", time.Minute, false,
		[]promises.Predicate{promises.MustProperty("view")},
		[]promises.Predicate{promises.MustProperty("smoking")},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() || res.Attempt != -1 || len(res.Tried) != 2 {
		t.Fatalf("result = %+v", res)
	}
}

func TestNegotiateAcceptsCounterOffer(t *testing.T) {
	// 10 widgets on hand; asking for 15 then 12 fails, but the manager's
	// counter-offer of 10 is taken.
	m := seedHotelAndStock(t)
	res, err := promises.Negotiate(bg, m, "c", time.Minute, true,
		[]promises.Predicate{promises.Quantity("widgets", 15)},
		[]promises.Predicate{promises.Quantity("widgets", 12)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatalf("counter not taken: %+v", res)
	}
	if res.Attempt != 2 { // == len(alternatives): the counter-offer
		t.Fatalf("attempt = %d", res.Attempt)
	}
	info, err := m.PromiseInfo(res.Response.PromiseID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Predicates[0].Qty != 10 {
		t.Fatalf("counter quantity = %d, want 10", info.Predicates[0].Qty)
	}
}

func TestNegotiateCounterDeclined(t *testing.T) {
	m := seedHotelAndStock(t)
	res, err := promises.Negotiate(bg, m, "c", time.Minute, false,
		[]promises.Predicate{promises.Quantity("widgets", 15)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("should not accept without counter")
	}
	if len(res.Response.Counter) != 1 || res.Response.Counter[0].Qty != 10 {
		t.Fatalf("counter = %+v", res.Response.Counter)
	}
}

func TestNegotiateNoAlternatives(t *testing.T) {
	m := seedHotelAndStock(t)
	if _, err := promises.Negotiate(bg, m, "c", time.Minute, false); !errors.Is(err, promises.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestNegotiateCounterRace(t *testing.T) {
	// The counter-offer is advisory, not a hold: if the capacity vanishes
	// between rejection and resubmission, the counter attempt fails too.
	m := seedHotelAndStock(t)
	// Ask for 15 -> counter 10, but drain 5 before accepting.
	resp, err := m.Execute(bg, promises.Request{
		Client: "rival",
		PromiseRequests: []promises.PromiseRequest{{
			Predicates: []promises.Predicate{promises.Quantity("widgets", 15)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	counter := resp.Promises[0].Counter
	if len(counter) != 1 {
		t.Fatalf("counter = %v", counter)
	}
	// Rival takes 5.
	if _, err := m.Execute(bg, promises.Request{
		Client: "rival",
		PromiseRequests: []promises.PromiseRequest{{
			Predicates: []promises.Predicate{promises.Quantity("widgets", 5)},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	// Resubmitting the stale counter fails with a fresh counter of 5.
	resp, err = m.Execute(bg, promises.Request{
		Client:          "c",
		PromiseRequests: []promises.PromiseRequest{{Predicates: counter}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.Promises[0]
	if pr.Accepted {
		t.Fatal("stale counter accepted")
	}
	if len(pr.Counter) != 1 || pr.Counter[0].Qty != 5 {
		t.Fatalf("fresh counter = %+v", pr.Counter)
	}
}
