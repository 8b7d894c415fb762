// Package core implements the Promise shard, the paper's primary
// contribution (§2): "A promise manager sits between clients and application
// services and implements Promise functionality on behalf of a number of
// services and resource managers. The job of a promise manager is to work
// with application services and resource managers to grant or deny promise
// requests, check on resource availability and ensure that promises are not
// violated."
//
// The implementation follows the prototype of §8: promises live in a
// promise table; every client request — promise requests, the application
// action, environment releases and the post-action promise check — executes
// inside one ACID transaction provided by internal/txn; violations detected
// after the action cause the action's changes to be rolled back.
package core

import "errors"

// Sentinel errors surfaced to promise clients.
var (
	// ErrPromiseNotFound is returned when a referenced promise id does not
	// exist or belongs to a different client.
	ErrPromiseNotFound = errors.New("core: promise not found")
	// ErrPromiseExpired corresponds to the paper's "promise-expired" error
	// (§2): the client attempted an operation under the protection of an
	// expired promise.
	ErrPromiseExpired = errors.New("core: promise expired")
	// ErrPromiseReleased is returned when using a promise that was already
	// released.
	ErrPromiseReleased = errors.New("core: promise already released")
	// ErrPromisePreempted is returned when using a preemptible promise that
	// a higher-priority grant revoked before its deadline.
	ErrPromisePreempted = errors.New("core: promise preempted")
	// ErrPromiseViolated is returned when the post-action consistency check
	// fails: the application action made state changes that violate
	// promises not being released with it; the action has been rolled back
	// (§8).
	ErrPromiseViolated = errors.New("core: action violated outstanding promises; changes rolled back")
	// ErrBadRequest is returned for malformed requests (no client, empty
	// predicates, non-positive quantities…).
	ErrBadRequest = errors.New("core: malformed request")
	// ErrDegraded is returned for grants, releases and other mutating
	// requests while the engine is in degraded read-only mode: a persistent
	// WAL append/sync failure has made new commits undurable, so they are
	// rejected rather than silently risked. Reads (CheckBatch, Watch,
	// Stats) keep serving off snapshots; service resumes automatically when
	// a log re-probe succeeds (see DurabilityOptions.ReprobeEvery).
	ErrDegraded = errors.New("core: engine degraded (persistence failing); read-only until the log recovers")
)
