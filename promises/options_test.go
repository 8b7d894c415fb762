package promises_test

import (
	"context"
	"testing"
	"time"

	"repro/promises"
)

// TestLocalOptionsReachEveryEngineShape opens each of the four local
// engine shapes — in-memory or durable, one shard or four — with the same
// options, and checks that every option takes effect on every shape.
func TestLocalOptionsReachEveryEngineShape(t *testing.T) {
	const (
		priority = 3
		maxDur   = time.Minute
		warning  = 10 * time.Second
	)
	shapes := []struct {
		name    string
		durable bool
		shards  int
	}{
		{"memory/1-shard", false, 1},
		{"memory/4-shards", false, 4},
		{"durable/1-shard", true, 1},
		{"durable/4-shards", true, 4},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			clk := promises.FakeClock()
			opts := []promises.Option{
				promises.WithClock(clk),
				promises.WithShards(shape.shards),
				promises.WithDefaultPriority(priority),
				promises.WithMaxDuration(maxDur),
				promises.WithExpiryWarning(warning),
			}
			if shape.durable {
				opts = append(opts, promises.WithDataDir(t.TempDir()))
			}
			eng := openLocal(t, "seats", 5, opts...)
			t.Cleanup(func() { _ = eng.Close() })
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			events, err := eng.Watch(ctx, promises.WatchOptions{Client: "c"})
			if err != nil {
				t.Fatal(err)
			}

			start := clk.Now()
			resp, err := eng.Execute(ctx, promises.Request{
				Client: "c",
				PromiseRequests: []promises.PromiseRequest{{
					Predicates: []promises.Predicate{promises.Quantity("seats", 1)},
					Duration:   time.Hour,
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			pr := resp.Promises[0]
			if !pr.Accepted {
				t.Fatalf("grant rejected: %s", pr.Reason)
			}

			t.Run("WithDefaultPriority", func(t *testing.T) {
				info, err := eng.(interface {
					PromiseInfo(string) (promises.Promise, error)
				}).PromiseInfo(pr.PromiseID)
				if err != nil {
					t.Fatal(err)
				}
				if info.Priority != priority {
					t.Errorf("granted promise priority = %d, want %d", info.Priority, priority)
				}
			})
			t.Run("WithMaxDuration", func(t *testing.T) {
				if want := start.Add(maxDur); !pr.Expires.Equal(want) {
					t.Errorf("expires %v after grant, want the %v cap", pr.Expires.Sub(start), maxDur)
				}
			})
			t.Run("WithExpiryWarning", func(t *testing.T) {
				clk.Advance(maxDur - warning + time.Second)
				timeout := time.After(5 * time.Second)
				for {
					select {
					case ev := <-events:
						if ev.Type == promises.EventExpiryImminent && ev.PromiseID == pr.PromiseID {
							return
						}
					case <-timeout:
						t.Fatal("no expiry-imminent event inside the warning window")
					}
				}
			})
		})
	}
}
