package core

import (
	"errors"
	"testing"

	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/txn"
)

// seedHotel creates the §3.3 hotel: room 512 (5th floor, view) and room 316
// (3rd floor, view).
func seedHotel(t *testing.T, m *Manager) {
	t.Helper()
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreateInstance(tx, "room-316", map[string]predicate.Value{
			"floor": predicate.Int(3), "view": predicate.Bool(true),
		}); err != nil {
			return err
		}
		return rm.CreateInstance(tx, "room-512", map[string]predicate.Value{
			"floor": predicate.Int(5), "view": predicate.Bool(true),
		})
	})
}

func propertyReq(client, expr string) Request {
	return Request{Client: client, PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{MustProperty(expr)},
	}}}
}

func TestTentativeAllocationReassignsRoom512(t *testing.T) {
	// §5: "a request for a hotel room with a view may lead to tentatively
	// allocating room 512 … When a later request is made to promise a 5th
	// floor room, the system may reallocate 512 to the new request as long
	// as a different room with a view can still be provided."
	m, _ := newManager(t, Config{PropertyMode: MatchingMode})
	seedHotel(t, m)

	view := grantOne(t, m, propertyReq("cust-view", "view = true"))
	if !view.Accepted {
		t.Fatal(view.Reason)
	}
	fifth := grantOne(t, m, propertyReq("cust-5th", "floor = 5"))
	if !fifth.Accepted {
		t.Fatalf("5th-floor promise rejected (reallocation failed): %s", fifth.Reason)
	}
	vi, _ := m.PromiseInfo(view.PromiseID)
	fi, _ := m.PromiseInfo(fifth.PromiseID)
	if fi.Assigned[0] != "room-512" {
		t.Fatalf("5th-floor promise assigned %q", fi.Assigned[0])
	}
	if vi.Assigned[0] != "room-316" {
		t.Fatalf("view promise should have been moved to room-316, got %q", vi.Assigned[0])
	}
	// A third overlapping promise must fail: only two rooms.
	third := grantOne(t, m, propertyReq("cust-3", "view = true"))
	if third.Accepted {
		t.Fatal("two rooms cannot back three promises")
	}
}

func TestFirstFitAblationLosesGrant(t *testing.T) {
	// E7: first-fit binds the view promise to room-316 or room-512 by id
	// order; "room-316" sorts first so view gets 316, and the 5th-floor
	// request still finds 512. Make first-fit genuinely fail by seeding so
	// the greedy choice blocks: view takes room-512 (only room until 316
	// is added later... instead use id order trickery).
	m, _ := newManager(t, Config{PropertyMode: FirstFitMode})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		// id order: "room-a512" < "room-b316"; first-fit gives the view
		// promise room-a512, stranding the 5th-floor request.
		if err := rm.CreateInstance(tx, "room-a512", map[string]predicate.Value{
			"floor": predicate.Int(5), "view": predicate.Bool(true),
		}); err != nil {
			return err
		}
		return rm.CreateInstance(tx, "room-b316", map[string]predicate.Value{
			"floor": predicate.Int(3), "view": predicate.Bool(true),
		})
	})
	view := grantOne(t, m, propertyReq("cust-view", "view = true"))
	if !view.Accepted {
		t.Fatal(view.Reason)
	}
	vi, _ := m.PromiseInfo(view.PromiseID)
	if vi.Assigned[0] != "room-a512" {
		t.Fatalf("first-fit should pick room-a512, got %q", vi.Assigned[0])
	}
	fifth := grantOne(t, m, propertyReq("cust-5th", "floor = 5"))
	if fifth.Accepted {
		t.Fatal("first-fit should lose this grant (matching mode would win it)")
	}
}

func TestNamedGrantDisplacesTentativeAllocation(t *testing.T) {
	// A named promise for room 512 arrives while a property promise
	// tentatively holds it; matching mode moves the property promise.
	m, _ := newManager(t, Config{PropertyMode: MatchingMode})
	seedHotel(t, m)
	view := grantOne(t, m, propertyReq("cust-view", "view = true"))
	if !view.Accepted {
		t.Fatal(view.Reason)
	}
	vi, _ := m.PromiseInfo(view.PromiseID)
	if vi.Assigned[0] != "room-316" {
		// Matching may have picked either room; force the interesting case
		// by requesting the one it picked.
	}
	target := vi.Assigned[0]
	named := grantOne(t, m, Request{Client: "vip", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named(target)},
	}}})
	if !named.Accepted {
		t.Fatalf("named grant over tentative allocation rejected: %s", named.Reason)
	}
	vi2, _ := m.PromiseInfo(view.PromiseID)
	if vi2.Assigned[0] == target {
		t.Fatalf("property promise still holds %q after named displacement", target)
	}
	// Now both rooms are pinned; another named request for the other room
	// must fail.
	other := vi2.Assigned[0]
	named2 := grantOne(t, m, Request{Client: "vip2", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named(other)},
	}}})
	if named2.Accepted {
		t.Fatal("displacing the last satisfying room should be rejected")
	}
}

func TestNamedGrantOverTentativeRejectedInFirstFit(t *testing.T) {
	m, _ := newManager(t, Config{PropertyMode: FirstFitMode})
	seedHotel(t, m)
	view := grantOne(t, m, propertyReq("cust-view", "view = true"))
	vi, _ := m.PromiseInfo(view.PromiseID)
	named := grantOne(t, m, Request{Client: "vip", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named(vi.Assigned[0])},
	}}})
	if named.Accepted {
		t.Fatal("first-fit mode cannot displace tentative allocations")
	}
}

func TestPropertyPromiseReleaseFreesInstance(t *testing.T) {
	m, _ := newManager(t, Config{})
	seedHotel(t, m)
	a := grantOne(t, m, propertyReq("a", "view = true"))
	b := grantOne(t, m, propertyReq("b", "view = true"))
	if !a.Accepted || !b.Accepted {
		t.Fatal("setup")
	}
	c := grantOne(t, m, propertyReq("c", "view = true"))
	if c.Accepted {
		t.Fatal("no third room")
	}
	if _, err := m.Execute(bg, Request{Client: "a", Env: []EnvEntry{{PromiseID: a.PromiseID, Release: true}}}); err != nil {
		t.Fatal(err)
	}
	c2 := grantOne(t, m, propertyReq("c", "view = true"))
	if !c2.Accepted {
		t.Fatalf("release did not free the room: %s", c2.Reason)
	}
}

func TestPostActionRepairAfterPropertyChange(t *testing.T) {
	// An action changes a property of a tentatively assigned instance so it
	// no longer satisfies its predicate; matching mode repairs by moving
	// the promise to another instance.
	m, _ := newManager(t, Config{PropertyMode: MatchingMode})
	seedHotel(t, m)
	pr := grantOne(t, m, propertyReq("cust", "view = true"))
	info, _ := m.PromiseInfo(pr.PromiseID)
	assigned := info.Assigned[0]
	resp, err := m.Execute(bg, Request{
		Client: "maintenance",
		Action: func(ac *ActionContext) (any, error) {
			in, err := ac.Resources.Instance(ac.Tx, assigned)
			if err != nil {
				return nil, err
			}
			in.Props["view"] = predicate.Bool(false) // scaffolding goes up
			return nil, ac.Resources.PutInstance(ac.Tx, in)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatalf("repairable change rejected: %v", resp.ActionErr)
	}
	info2, _ := m.PromiseInfo(pr.PromiseID)
	if info2.Assigned[0] == assigned {
		t.Fatalf("promise was not repaired away from %q", assigned)
	}
}

func TestPostActionRepairImpossibleRollsBack(t *testing.T) {
	m, _ := newManager(t, Config{PropertyMode: MatchingMode})
	seedHotel(t, m)
	a := grantOne(t, m, propertyReq("a", "view = true"))
	b := grantOne(t, m, propertyReq("b", "view = true"))
	if !a.Accepted || !b.Accepted {
		t.Fatal("setup")
	}
	// Both rooms are promised; removing the view from one breaks a promise
	// with no repair possible.
	resp, err := m.Execute(bg, Request{
		Client: "maintenance",
		Action: func(ac *ActionContext) (any, error) {
			in, err := ac.Resources.Instance(ac.Tx, "room-512")
			if err != nil {
				return nil, err
			}
			in.Props["view"] = predicate.Bool(false)
			return nil, ac.Resources.PutInstance(ac.Tx, in)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseViolated) {
		t.Fatalf("ActionErr = %v, want ErrPromiseViolated", resp.ActionErr)
	}
	// Rolled back: room 512 still has its view.
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	in, _ := m.only().rm.Instance(tx, "room-512")
	if v, _ := in.Props["view"].AsBool(); !v {
		t.Fatal("violating property change was not rolled back")
	}
}

func TestPropertyTakenUnderPromiseWithAtomicRelease(t *testing.T) {
	// The booking action takes the assigned room and releases the promise
	// atomically (§4 second requirement, property flavour).
	m, _ := newManager(t, Config{})
	seedHotel(t, m)
	pr := grantOne(t, m, propertyReq("cust", "floor = 5"))
	info, _ := m.PromiseInfo(pr.PromiseID)
	room := info.Assigned[0]
	resp, err := m.Execute(bg, Request{
		Client: "cust",
		Env:    []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		Action: func(ac *ActionContext) (any, error) {
			return room, ac.Resources.SetStatus(ac.Tx, room, resource.Taken)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ActionErr != nil {
		t.Fatalf("booking failed: %v", resp.ActionErr)
	}
	tx := m.only().store.Begin(txn.Block)
	defer tx.Commit()
	in, _ := m.only().rm.Instance(tx, room)
	if in.Status != resource.Taken {
		t.Fatalf("room status = %v", in.Status)
	}
}

func TestMixedViewRequestAtomic(t *testing.T) {
	// One request mixing all three views is granted or rejected as a unit.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		rm := m.only().rm
		if err := rm.CreatePool(tx, "budget", 500, nil); err != nil {
			return err
		}
		if err := rm.CreateInstance(tx, "car-vin1", map[string]predicate.Value{"kind": predicate.Str("car")}); err != nil {
			return err
		}
		return rm.CreateInstance(tx, "room-512", map[string]predicate.Value{"floor": predicate.Int(5)})
	})
	mixed := []Predicate{
		Quantity("budget", 400),
		Named("car-vin1"),
		MustProperty("floor = 5"),
	}
	pr := grantOne(t, m, Request{Client: "trip", PromiseRequests: []PromiseRequest{{Predicates: mixed}}})
	if !pr.Accepted {
		t.Fatalf("mixed grant rejected: %s", pr.Reason)
	}
	// Second identical request fails on every leg; nothing must leak.
	pr2 := grantOne(t, m, Request{Client: "trip2", PromiseRequests: []PromiseRequest{{Predicates: mixed}}})
	if pr2.Accepted {
		t.Fatal("resources double-promised")
	}
	probe := grantOne(t, m, requestQuantity("probe", "budget", 100))
	if !probe.Accepted {
		t.Fatalf("budget leaked by failed mixed request: %s", probe.Reason)
	}
}

func TestModifyPropertyPromiseWeakening(t *testing.T) {
	// §3.3 negotiation: client first holds "non-smoking with view and twin
	// beds", then settles for "twin beds" — an atomic modify.
	m, _ := newManager(t, Config{})
	seed(t, m, func(tx *txn.Tx) error {
		return m.only().rm.CreateInstance(tx, "room-7", map[string]predicate.Value{
			"smoking": predicate.Bool(false), "view": predicate.Bool(true), "beds": predicate.Str("twin"),
		})
	})
	full := grantOne(t, m, propertyReq("cust", `not smoking and view and beds = "twin"`))
	if !full.Accepted {
		t.Fatal(full.Reason)
	}
	weak := grantOne(t, m, Request{Client: "cust", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{MustProperty(`beds = "twin"`)},
		Releases:   []string{full.PromiseID},
	}}})
	if !weak.Accepted {
		t.Fatalf("weakening modify rejected: %s", weak.Reason)
	}
	if old, _ := m.PromiseInfo(full.PromiseID); old.State != Released {
		t.Fatalf("old promise state = %v", old.State)
	}
	wi, _ := m.PromiseInfo(weak.PromiseID)
	if wi.Assigned[0] != "room-7" {
		t.Fatalf("weakened promise assigned %q", wi.Assigned[0])
	}
}
