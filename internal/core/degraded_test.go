package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/failpoint"
)

// degGrant grants one quantity promise and returns its id ("" on reject or
// error; err carries the transport/engine failure).
func degGrant(ctx context.Context, e *Manager, client, pool string, dur time.Duration) (string, error) {
	resp, err := e.Execute(ctx, Request{Client: client, PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(pool, 1)},
		Duration:   dur,
	}}})
	if err != nil {
		return "", err
	}
	if len(resp.Promises) == 0 || !resp.Promises[0].Accepted {
		return "", fmt.Errorf("grant rejected")
	}
	return resp.Promises[0].PromiseID, nil
}

// TestDegradedModeEntryReadsAndRecovery pins the degraded read-only
// contract end to end, deterministically (fake clock, failpoint — no
// sleeps): a persistent WAL sync failure trips Degraded on the first
// commit it fails; further grants and releases reject with ErrDegraded
// while CheckBatch and Watch keep serving; re-probes on the alarm cadence
// stay degraded while the fault persists and restore full service once it
// clears.
func TestDegradedModeEntryReadsAndRecovery(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			defer failpoint.Reset()
			ctx := context.Background()
			clk := clock.NewFake(durBase)
			e := openDur(t, t.TempDir(), shards, clk, DurabilityOptions{
				Sync:            SyncAlways,
				CheckpointEvery: -1, // isolate the re-probe cadence
				ReprobeEvery:    5 * time.Second,
			})
			defer e.Close()
			if err := e.CreatePool("widgets", 10, nil); err != nil {
				t.Fatal(err)
			}

			healthy, err := degGrant(ctx, e, "alice", "widgets", time.Hour)
			if err != nil {
				t.Fatalf("healthy grant: %v", err)
			}
			if h := e.Health(); h.Degraded {
				t.Fatalf("degraded before any failure: %+v", h)
			}

			// The disk stops answering fsync. The commit that first hits it
			// surfaces the durability failure and trips degraded mode.
			if err := failpoint.Arm("wal/sync=error(disk gone)"); err != nil {
				t.Fatal(err)
			}
			if _, err := degGrant(ctx, e, "alice", "widgets", time.Hour); err == nil {
				t.Fatal("grant with failing sync reported success")
			} else if errors.Is(err, ErrDegraded) {
				t.Fatalf("first failing commit must report 'not durable', not the degraded reject: %v", err)
			}
			h := e.Health()
			if !h.Degraded || h.Reason == "" {
				t.Fatalf("health after sync failure = %+v, want degraded with reason", h)
			}

			// Mutations now reject up front with the typed sentinel.
			if _, err := degGrant(ctx, e, "alice", "widgets", time.Hour); !errors.Is(err, ErrDegraded) {
				t.Fatalf("grant while degraded = %v, want ErrDegraded", err)
			}
			if err := e.Release(ctx, "alice", healthy); !errors.Is(err, ErrDegraded) {
				t.Fatalf("release while degraded = %v, want ErrDegraded", err)
			}

			// Reads stay up off committed snapshots.
			errs, err := e.CheckBatch(ctx, "alice", []string{healthy})
			if err != nil || errs[0] != nil {
				t.Fatalf("CheckBatch while degraded = %v / %v", err, errs)
			}
			if evs := drainReplay(t, e, 0); len(evs) == 0 {
				t.Fatal("Watch replay empty while degraded")
			}

			// A probe fired while the fault persists must not restore
			// service.
			clk.Advance(5 * time.Second)
			if h := e.Health(); !h.Degraded {
				t.Fatal("probe against a still-broken log restored service")
			}

			// Fault clears; the next probe restores service end to end.
			failpoint.Reset()
			clk.Advance(5 * time.Second)
			if h := e.Health(); h.Degraded {
				t.Fatalf("health after successful re-probe = %+v", h)
			}
			recovered, err := degGrant(ctx, e, "alice", "widgets", time.Hour)
			if err != nil {
				t.Fatalf("grant after recovery: %v", err)
			}
			if err := e.Release(ctx, "alice", recovered); err != nil {
				t.Fatalf("release after recovery: %v", err)
			}
		})
	}
}

// TestDegradedAppendFailureTrips covers the other trip source: an append
// failure latches inside the commit hook and the next sync both
// surfaces it and flips health.
func TestDegradedAppendFailureTrips(t *testing.T) {
	defer failpoint.Reset()
	ctx := context.Background()
	clk := clock.NewFake(durBase)
	e := openDur(t, t.TempDir(), 1, clk, DurabilityOptions{
		Sync:            SyncAlways,
		CheckpointEvery: -1,
		ReprobeEvery:    time.Second,
	})
	defer e.Close()
	if err := e.CreatePool("widgets", 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("wal/append=error(no space)"); err != nil {
		t.Fatal(err)
	}
	if _, err := degGrant(ctx, e, "bob", "widgets", time.Hour); err == nil {
		t.Fatal("grant with failing append reported success")
	}
	if h := e.Health(); !h.Degraded {
		t.Fatal("append failure did not trip degraded mode")
	}
	failpoint.Reset()
	clk.Advance(time.Second)
	if _, err := degGrant(ctx, e, "bob", "widgets", time.Hour); err != nil {
		t.Fatalf("grant after recovery: %v", err)
	}
}

// TestDegradedRecoveryAfterRestart: a degraded engine that closes and
// reopens over the same directory comes back healthy (the re-probe
// checkpoint captured the full state, so recovery has nothing missing to
// replay) and serves the pre-failure grants.
func TestDegradedRecoveryAfterRestart(t *testing.T) {
	defer failpoint.Reset()
	ctx := context.Background()
	dir := t.TempDir()
	clk := clock.NewFake(durBase)
	e := openDur(t, dir, 1, clk, DurabilityOptions{
		Sync:            SyncAlways,
		CheckpointEvery: -1,
		ReprobeEvery:    time.Second,
	})
	if err := e.CreatePool("widgets", 10, nil); err != nil {
		t.Fatal(err)
	}
	healthy, err := degGrant(ctx, e, "carol", "widgets", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("wal/sync=error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	if _, err := degGrant(ctx, e, "carol", "widgets", time.Hour); err == nil {
		t.Fatal("grant with failing sync reported success")
	}
	failpoint.Reset()
	clk.Advance(time.Second) // recover via re-probe, then restart cleanly
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2 := openDur(t, dir, 1, clk, DurabilityOptions{Sync: SyncAlways})
	defer e2.Close()
	errs, err := e2.CheckBatch(ctx, "carol", []string{healthy})
	if err != nil || errs[0] != nil {
		t.Fatalf("recovered CheckBatch = %v / %v", err, errs)
	}
	if h := e2.Health(); h.Degraded {
		t.Fatalf("reopened engine degraded: %+v", h)
	}
}
