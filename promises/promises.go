// Re-exports and predicate builders; the package documentation lives in
// doc.go.

package promises

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/predicate"
)

// Re-exported core types. The library's behaviour is documented on the
// originals in repro/internal/core.
type (
	// Manager is the local promise manager (§2, §8) that Open builds: its
	// state is striped across WithShards(n) shards for concurrent
	// throughput; see core.Manager.
	Manager = core.Manager
	// Request is one client message (§6).
	Request = core.Request
	// Response is the manager's reply.
	Response = core.Response
	// PromiseRequest is one atomic <promise-request> (§4, §6).
	PromiseRequest = core.PromiseRequest
	// PromiseResponse is one <promise-response> (§6).
	PromiseResponse = core.PromiseResponse
	// EnvEntry names an environment promise with its release option.
	EnvEntry = core.EnvEntry
	// Predicate is one promised condition (§3).
	Predicate = core.Predicate
	// Promise is a granted promise.
	Promise = core.Promise
	// Action is an application operation run under the manager's
	// transaction (§8).
	Action = core.Action
	// NamedAction is a registered service operation taking string
	// parameters — the wire-representable action shape.
	NamedAction = core.NamedAction
	// ActionResolver maps action names to runnable operations; see
	// WithActions.
	ActionResolver = core.ActionResolver
	// ActionContext gives actions transactional resource access.
	ActionContext = core.ActionContext
	// Supplier is an upstream promise maker for delegation (§5).
	Supplier = core.Supplier
	// View is a resource view (§3).
	View = core.View
	// State is a promise lifecycle state.
	State = core.State
	// PropertyMode selects the property-view technique (§5).
	PropertyMode = core.PropertyMode
	// Event is one promise lifecycle transition delivered by Engine.Watch.
	Event = core.Event
	// EventType names a lifecycle transition.
	EventType = core.EventType
	// WatchOptions filters and configures one Watch subscription.
	WatchOptions = core.WatchOptions
	// SlowPolicy selects the full-buffer behaviour of a subscription.
	SlowPolicy = core.SlowPolicy
	// Stats is a snapshot of manager activity counters.
	Stats = core.Stats
	// ShardStat is one shard's slice of a Manager's Stats.
	ShardStat = core.ShardStat
	// AuditReport summarises a consistency audit (Engine.Audit).
	AuditReport = core.AuditReport
	// SyncPolicy selects when a durable engine's log writes reach stable
	// storage; see WithSyncPolicy.
	SyncPolicy = core.SyncPolicy
	// Value is one typed property value for seeding instances; see Int,
	// Str and Bool.
	Value = predicate.Value
)

// Re-exported constants.
const (
	AnonymousView = core.AnonymousView
	NamedView     = core.NamedView
	PropertyView  = core.PropertyView

	Active    = core.Active
	Released  = core.Released
	Expired   = core.Expired
	Preempted = core.Preempted

	MatchingMode = core.MatchingMode
	FirstFitMode = core.FirstFitMode

	EventGranted        = core.EventGranted
	EventRenewed        = core.EventRenewed
	EventReleased       = core.EventReleased
	EventExpired        = core.EventExpired
	EventExpiryImminent = core.EventExpiryImminent
	EventViolated       = core.EventViolated
	EventMigrated       = core.EventMigrated
	EventPreempted      = core.EventPreempted

	SlowDrop       = core.SlowDrop
	SlowDisconnect = core.SlowDisconnect

	// Sync policies for WithSyncPolicy. SyncAlways fsyncs before a request
	// is answered; SyncInterval group-commits on a timer (WithSyncEvery);
	// SyncNone leaves flushing to the OS.
	SyncAlways   = core.SyncAlways
	SyncInterval = core.SyncInterval
	SyncNone     = core.SyncNone
)

// Re-exported sentinel errors.
var (
	ErrPromiseNotFound  = core.ErrPromiseNotFound
	ErrPromiseExpired   = core.ErrPromiseExpired
	ErrPromiseReleased  = core.ErrPromiseReleased
	ErrPromiseViolated  = core.ErrPromiseViolated
	ErrPromisePreempted = core.ErrPromisePreempted
	ErrBadRequest       = core.ErrBadRequest
)

// Quantity builds an anonymous-view predicate (§3.1): qty units of pool
// must remain available.
func Quantity(pool string, qty int64) Predicate { return core.Quantity(pool, qty) }

// Named builds a named-view predicate (§3.2) over one instance.
func Named(instance string) Predicate { return core.Named(instance) }

// Property builds a property-view predicate (§3.3) from an expression in
// the standard predicate syntax.
func Property(src string) (Predicate, error) { return core.Property(src) }

// MustProperty is Property that panics on parse errors; for statically
// known expressions.
func MustProperty(src string) Predicate { return core.MustProperty(src) }

// FromExpr interprets a lower-bound quantity expression such as
// "quantity >= 5" or "balance >= 100" as an anonymous predicate on pool.
func FromExpr(pool, src string) (Predicate, error) { return core.FromExpr(pool, src) }

// ParseSyncPolicy parses "always", "interval" or "none" into the
// WithSyncPolicy vocabulary — the textual form the promised daemon's -sync
// flag and configuration files use.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return core.ParseSyncPolicy(s) }

// Int builds an integer property value for seeding instances.
func Int(v int64) Value { return predicate.Int(v) }

// Str builds a string property value for seeding instances.
func Str(v string) Value { return predicate.Str(v) }

// Bool builds a boolean property value for seeding instances.
func Bool(v bool) Value { return predicate.Bool(v) }

// SystemClock is the wall clock for WithClock.
func SystemClock() clock.Clock { return clock.System{} }

// FakeClock returns a manually advanced clock for tests and simulations.
func FakeClock() *clock.Fake { return clock.NewFake(clock.System{}.Now()) }
