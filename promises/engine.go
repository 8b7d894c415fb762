package promises

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/transport"
)

// Engine is the unified, context-first surface of a promise maker (§2) —
// the one interface applications, suppliers and tools are written against,
// whether the maker is an in-process store or a remote daemon reached over
// the §6 wire protocol:
//
//   - *Manager (promises.Open, at any WithShards count) implements Engine;
//   - the remote client (promises.Open with WithRemote(url)) implements
//     Engine;
//   - the federated cluster engine (promises.Open with WithCluster(nodes))
//     implements Engine, routing each call across a multi-node deployment.
//
// The paper's §5 delegation model treats promise makers as interchangeable
// whether local or reached over the wire; Engine is that interchangeability
// as a type. Contexts bound every call: cancellation is honoured before
// work starts and, on a sharded engine, between per-shard reservations of a
// cross-shard grant — a dead client aborts the pipeline before anything is
// confirmed, leaking no state.
type Engine interface {
	// Execute processes one client message — any mix of promise requests,
	// an environment with release options, and an action (§6) — atomically.
	Execute(ctx context.Context, req Request) (*Response, error)
	// GrantBatch processes many independent promise requests for one
	// client, amortizing lock and transaction overhead; each request is
	// still individually atomic.
	GrantBatch(ctx context.Context, client string, reqs []PromiseRequest) ([]PromiseResponse, error)
	// CheckBatch reports, per promise id, whether the promise is currently
	// usable by client: nil, or the matching sentinel error. The outer
	// error reports a failure of the check itself (cancelled context, dead
	// transport), never a per-promise state.
	CheckBatch(ctx context.Context, client string, ids []string) ([]error, error)
	// Release hands back the named promises atomically: all released, or
	// none and the failure returned.
	Release(ctx context.Context, client string, ids ...string) error
	// Watch subscribes to the engine's promise lifecycle events — the §6
	// notification direction as an API. Events (Granted, Renewed, Released,
	// Expired, ExpiryImminent, Violated, Migrated) arrive on the returned
	// channel in one total order, with all events of one promise in
	// lifecycle order; Expired fires at the promise's deadline, driven by
	// the engine's expiry heap, not at the next request. The channel closes
	// when ctx is cancelled or, under WatchOptions.SlowDisconnect, when the
	// subscriber falls behind (with the default SlowDrop policy a slow
	// subscriber instead sees gaps in Event.Seq). A remote engine streams
	// the same sequence over SSE (GET /events) and resumes a broken
	// connection with a Last-Event-ID cursor.
	Watch(ctx context.Context, opts WatchOptions) (<-chan Event, error)
	// Stats snapshots the engine's activity counters.
	Stats() Stats
	// Audit runs a full consistency audit; an unhealthy report is a
	// report, not an error.
	Audit() (*AuditReport, error)
	// Close shuts the engine down cleanly. On a durable engine (Open with
	// WithDataDir) it takes a final checkpoint and closes the log, so the
	// next Open recovers without replaying; on an in-memory engine it only
	// stops the background expiry alarm; on a remote engine it releases idle
	// connections (the daemon's state is the daemon's). Close after
	// quiescing requests; it is idempotent.
	Close() error
}

// The three engine implementations, pinned at compile time.
var (
	_ Engine = (*core.Manager)(nil)
	_ Engine = (*transport.Client)(nil)
	_ Engine = (*cluster.Engine)(nil)
)

// EngineSupplier adapts any Engine into a Supplier, so a delegation chain
// (§5) hangs off a local store or a remote daemon with zero call-site
// changes — the engine handed in is the only difference.
// It remembers which pool each upstream promise covers; ConsumePromise
// fulfils through the standard "adjust-pool" action, which the upstream
// engine must resolve (a daemon's standard handlers, or an engine opened
// with WithStandardActions).
type EngineSupplier struct {
	// E is the upstream promise maker.
	E Engine
	// Client is the identity used upstream.
	Client string

	mu    sync.Mutex
	pools map[string]string // upstream promise id -> pool
}

// RequestPromise implements Supplier.
func (s *EngineSupplier) RequestPromise(ctx context.Context, pool string, qty int64, d time.Duration) (string, error) {
	resp, err := s.E.Execute(ctx, Request{
		Client: s.Client,
		PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Quantity(pool, qty)},
			Duration:   d,
		}},
	})
	if err != nil {
		return "", err
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		return "", fmt.Errorf("promises: upstream rejected %d of %q: %s", qty, pool, pr.Reason)
	}
	s.mu.Lock()
	if s.pools == nil {
		s.pools = make(map[string]string)
	}
	s.pools[pr.PromiseID] = pool
	s.mu.Unlock()
	return pr.PromiseID, nil
}

// ReleasePromise implements Supplier.
func (s *EngineSupplier) ReleasePromise(ctx context.Context, id string) error {
	s.mu.Lock()
	delete(s.pools, id)
	s.mu.Unlock()
	return s.E.Release(ctx, s.Client, id)
}

// ConsumePromise implements Supplier: qty units ship under the promise's
// protection and the promise is released atomically with the draw-down
// (§4, second requirement).
func (s *EngineSupplier) ConsumePromise(ctx context.Context, id string, qty int64) error {
	s.mu.Lock()
	pool, ok := s.pools[id]
	delete(s.pools, id)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("promises: unknown upstream promise %q", id)
	}
	resp, err := s.E.Execute(ctx, Request{
		Client:       s.Client,
		Env:          []EnvEntry{{PromiseID: id, Release: true}},
		ActionName:   "adjust-pool",
		ActionParams: map[string]string{"pool": pool, "delta": fmt.Sprintf("-%d", qty)},
	})
	if err != nil {
		return err
	}
	return resp.ActionErr
}
