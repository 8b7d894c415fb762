package main

import (
	"context"
	"testing"

	"repro/promises"
)

func newSharded(t *testing.T) *promises.Manager {
	t.Helper()
	e, err := promises.Open(promises.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	return e.(*promises.Manager)
}

func TestSeedDatasets(t *testing.T) {
	for _, name := range []string{"retail", "hotel", "bank", "none"} {
		m := newSharded(t)
		if err := seedData(m, name); err != nil {
			t.Fatalf("seed %q: %v", name, err)
		}
		pools, err := m.Pools()
		if err != nil {
			t.Fatal(err)
		}
		instances, err := m.Instances()
		if err != nil {
			t.Fatal(err)
		}
		switch name {
		case "retail":
			if len(pools) != 3 {
				t.Fatalf("retail pools = %d", len(pools))
			}
		case "hotel":
			if len(instances) != 20 {
				t.Fatalf("hotel rooms = %d", len(instances))
			}
		case "bank":
			if len(pools) != 3 {
				t.Fatalf("bank accounts = %d", len(pools))
			}
		case "none":
			if len(pools) != 0 || len(instances) != 0 {
				t.Fatal("none seeded something")
			}
		}
	}
}

func TestSeedUnknown(t *testing.T) {
	if err := seedData(newSharded(t), "galaxy"); err == nil {
		t.Fatal("unknown seed accepted")
	}
}

func TestSeededRetailIsPromisable(t *testing.T) {
	m := newSharded(t)
	if err := seedData(m, "retail"); err != nil {
		t.Fatal(err)
	}
	resp, err := m.Execute(context.Background(), promises.Request{
		Client: "smoke",
		PromiseRequests: []promises.PromiseRequest{{
			Predicates: []promises.Predicate{promises.Quantity("pink-widgets", 5)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Promises[0].Accepted {
		t.Fatalf("seeded stock not promisable: %s", resp.Promises[0].Reason)
	}
}
