package core

import (
	"time"

	"repro/internal/resource"
	"repro/internal/txn"
)

// PromiseRequest is one <promise-request> element (§6): "A request
// identifier … a set of predicates … a set of resources … a promise
// duration … an optional set of promise identifiers that refer to existing
// promises that can be released if this new promise request is successfully
// granted."
//
// Each PromiseRequest is atomic: all predicates are promised or the entire
// request is rejected, and Releases are handed back only when the new
// promise is granted (§4, third requirement).
type PromiseRequest struct {
	// RequestID correlates this request with its response. Optional; the
	// manager echoes it back.
	RequestID string
	// Predicates are the conditions to guarantee, treated as one atomic
	// unit (§4: flight and rental car and hotel room all-or-nothing).
	Predicates []Predicate
	// Duration is how long the client wants the promise kept. The manager
	// may grant a shorter duration (§6: "the promise manager might …
	// offer a guarantee that expires sooner than the client wished").
	Duration time.Duration
	// MinDuration is the client's floor: the request is rejected (with a
	// clear reason) rather than granted for less. The manager's duration
	// cap and the request context's deadline both shorten grants — this is
	// how a client says a too-short guarantee is useless to it.
	MinDuration time.Duration
	// Releases lists existing promises to hand back atomically with the
	// grant; on rejection they remain in force.
	Releases []string
	// Priority is the request's tier (default 0). When the normal planner
	// finds no feasible assignment, a request may displace active
	// preemptible promises of strictly lower priority; equal or higher
	// tiers are never displaced.
	Priority int
	// Preemptible marks the granted promise as "spot" capacity: a later
	// higher-priority request may revoke it before its deadline, emitting
	// EventPreempted to its watchers.
	Preemptible bool
}

// EnvEntry names one promise forming the execution environment of an
// action, with its release option (§6 <environment>).
type EnvEntry struct {
	// PromiseID is the promise that must protect the action.
	PromiseID string
	// Release, when true, hands the promise back after the action
	// succeeds; the release and the action form an atomic unit (§4, second
	// requirement: buying the promised painting releases the availability
	// promise only if the purchase succeeds).
	Release bool
}

// ActionContext gives an application action transactional access to the
// resource manager. Actions are "coded without explicit knowledge of the PM
// or its promises" (§8); they see only the RM.
type ActionContext struct {
	// Tx is the request's ACID transaction.
	Tx *txn.Tx
	// Resources is the resource manager holding global system state.
	Resources *resource.Manager
}

// Action is an application service operation executed under the promise
// manager's transaction (§8: "any Action is passed on to the associated
// application"). The returned value is handed back to the client when the
// action succeeds and no promises are violated.
type Action func(ac *ActionContext) (any, error)

// NamedAction is a registered service operation taking string parameters —
// the shape of a §6 <action> element. service.Registry handlers have
// exactly this signature.
type NamedAction func(params map[string]string, ac *ActionContext) (string, error)

// ActionResolver maps action names to runnable operations, letting a local
// engine serve Request.ActionName exactly as a remote daemon resolves a
// wire <action> element. service.Registry implements it.
type ActionResolver interface {
	ResolveAction(name string) (NamedAction, error)
}

// Request is one client message to the promise manager, carrying any mix
// of promise requests, an environment, and an application action — §6:
// "each message may contain any subset of the different elements relating
// to promises, and these may be related to the message body or unrelated."
type Request struct {
	// Client identifies the promise client.
	Client string
	// PromiseRequests are processed in order, each atomically.
	PromiseRequests []PromiseRequest
	// Env lists the promises protecting Action, with release options.
	Env []EnvEntry
	// Action is the optional application request in the message body. It
	// cannot cross the wire; remote engines reject requests carrying it.
	Action Action
	// ActionName optionally names a registered service operation instead of
	// Action — the wire-representable form, resolved by the engine
	// (Config.Actions locally, the server's registry remotely), so one call
	// site works against local and remote engines alike. Setting both
	// ActionName and Action is an error.
	ActionName string
	// ActionParams are ActionName's parameters.
	ActionParams map[string]string
	// Resources optionally names the pools and instances Action touches.
	// The Manager uses it to route the action to the shard owning those
	// resources (an action only sees the resource state of the shard it
	// runs on).
	Resources []string
}

// PromiseResponse is one <promise-response> element (§6): "A promise
// identifier … a promise result … a promise duration … a promise
// correlation which is the request identifier of the earlier promise
// request."
type PromiseResponse struct {
	// Correlation echoes the PromiseRequest's RequestID.
	Correlation string
	// Accepted reports grant or rejection.
	Accepted bool
	// PromiseID identifies the granted promise (empty on rejection).
	PromiseID string
	// Reason explains a rejection.
	Reason string
	// Expires is when the granted promise lapses.
	Expires time.Time
	// Counter carries the manager's counter-offer on rejection — the §6
	// future-work idea of responses like "accepted with the condition XX".
	// For anonymous predicates that failed on quantity, Counter holds the
	// largest quantities the manager could promise right now (one
	// predicate per failing pool, omitted when nothing is available).
	// Clients can resubmit the counter predicates directly; see
	// promises.Negotiate.
	Counter []Predicate
}

// Response is the manager's reply to a Request.
type Response struct {
	// Promises holds one response per PromiseRequest, in order.
	Promises []PromiseResponse
	// ActionResult is the action's return value when it ran and survived
	// the post-action promise check.
	ActionResult any
	// ActionErr reports action failure: the action's own error, an
	// environment error (ErrPromiseExpired, ErrPromiseNotFound,
	// ErrPromiseReleased), or ErrPromiseViolated when the post-action check
	// rolled the action back.
	ActionErr error
}

// Granted returns the promise ids of all accepted responses, a convenience
// for clients that requested several promises in one message.
func (r *Response) Granted() []string {
	var out []string
	for _, pr := range r.Promises {
		if pr.Accepted {
			out = append(out, pr.PromiseID)
		}
	}
	return out
}
