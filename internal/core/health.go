package core

// Degraded read-only mode. A durable engine whose WAL stops accepting
// appends or fsyncs cannot make new commits durable; instead of latching
// the failure silently (and failing every sync from then on), the engine
// transitions to a well-defined degraded state: mutating requests reject
// with ErrDegraded, reads and Watch keep serving off committed snapshots,
// and a clock-driven log re-probe restores service when the disk answers
// again (recover.go, armReprobe). The daemon surfaces the state through
// /healthz and /readyz.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Health is an engine's serving state, as exposed by Manager.Health and by
// the daemon's /readyz endpoint.
type Health struct {
	// Degraded reports read-only mode: persistence is failing, mutating
	// requests are rejected with ErrDegraded.
	Degraded bool `json:"degraded"`
	// Reason is the first persistence failure that tripped degraded mode.
	Reason string `json:"reason,omitempty"`
}

// engineHealth is the shared degraded-state latch: one per durable engine,
// pointed to by the durableEngine, every shard and the Manager. All methods are nil-safe so non-durable engines (which
// never degrade) pay a single branch.
type engineHealth struct {
	degraded atomic.Bool
	mu       sync.Mutex
	reason   string
	// onTrip runs once per transition into degraded mode, outside mu. The
	// durable engine uses it to arm the re-probe alarm.
	onTrip func()
}

// trip moves the engine into degraded mode. Only the first trip per
// episode records its reason and fires onTrip; later failures while
// already degraded are no-ops.
func (h *engineHealth) trip(reason string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	fresh := !h.degraded.Load()
	if fresh {
		h.reason = reason
		h.degraded.Store(true)
	}
	cb := h.onTrip
	h.mu.Unlock()
	if fresh && cb != nil {
		cb()
	}
}

// clear restores normal service after a successful re-probe.
func (h *engineHealth) clear() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.degraded.Store(false)
	h.reason = ""
	h.mu.Unlock()
}

// reject returns the ErrDegraded rejection for mutating requests, or nil
// when the engine is serving normally. The common path is one atomic load.
func (h *engineHealth) reject() error {
	if h == nil || !h.degraded.Load() {
		return nil
	}
	h.mu.Lock()
	reason := h.reason
	h.mu.Unlock()
	return fmt.Errorf("%w: %s", ErrDegraded, reason)
}

// snapshot returns the current health.
func (h *engineHealth) snapshot() Health {
	if h == nil || !h.degraded.Load() {
		return Health{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return Health{Degraded: h.degraded.Load(), Reason: h.reason}
}

// Health reports the engine's serving state. A non-durable Manager is
// always healthy: it has no persistence to lose.
func (s *Manager) Health() Health { return s.health.snapshot() }

// HealthReporter is the optional interface engines expose for the daemon's
// /readyz endpoint; transport.Server type-asserts it.
type HealthReporter interface {
	Health() Health
}
