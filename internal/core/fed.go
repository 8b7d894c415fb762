package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/ids"
	"repro/internal/predicate"
)

// This file is the node-side half of cluster federation: a wire-facing
// port onto the grant session of session.go that lets a *remote*
// coordinator (cluster.Engine, or the drain path of cluster.Coordinator)
// drive this node's shards as one participant of a cross-node two-phase
// grant. FedReserve opens a session — shard locks held, per-shard
// reservations open, fixed predicates tentatively granted — and exports the
// node's property-match state (slots + candidates) so the caller can solve
// the joint bipartite problem across nodes (SolveJoint). FedConfirm hands
// the caller's plan (reallocations, slot migrations in and out of the
// node, pinned property grants) to the session to apply and commit;
// FedAbort rolls everything back. A TTL alarm aborts sessions whose caller
// died, so a crashed coordinator can never wedge a node's shard locks
// forever.

// FedReserveSpec is the reserve half of a federated grant as it applies to
// one node: the release targets and predicates this node owns, plus every
// property predicate of the original request (never granted at reserve —
// they scope the shard pre-filter and the exported context).
type FedReserveSpec struct {
	// Releases are the release targets owned by this node (§4 upgrade
	// semantics: applied tentatively inside the reservation).
	Releases []string
	// Predicates are this node's slice of the request: anonymous and named
	// predicates on resources this node owns, plus all property
	// predicates. PredIdx carries each predicate's position in the
	// original request.
	Predicates []Predicate
	PredIdx    []int
	// WantProps asks for the node's property-match context (slots and
	// candidates) in the result, for a caller about to run a joint match.
	WantProps bool
	// Duration and MinDuration are the original request's, re-clamped
	// locally (shard configs agree across a well-formed cluster).
	Duration    time.Duration
	MinDuration time.Duration
	// TTL bounds how long the session may stay open before the node
	// aborts it unilaterally. Zero means DefaultFedTTL; the node caps it
	// at MaxFedTTL.
	TTL time.Duration
	// Priority and Preemptible carry the original request's tier and spot
	// flag, as in PromiseRequest: sub-promises are stamped with them, and
	// a positive tier lets each node's planner displace its own
	// lower-tier preemptible holds (preempt.go). Victim selection is
	// node-local — a federated grant never preempts across nodes.
	Priority    int
	Preemptible bool
}

// Fed session TTL bounds: how long a node holds its shard locks for an
// absent federation caller before aborting the session.
const (
	DefaultFedTTL = 30 * time.Second
	MaxFedTTL     = 2 * time.Minute
)

// FedSlot is one active property slot exported in a session's context —
// the left-vertex material of the joint match, with enough identity
// (client, expiry) for a migration to reconstruct the promise row on
// another node.
type FedSlot struct {
	// Key is the slot key ("<promise>#<idx>").
	Key string
	// Expr is the slot's property expression in source form.
	Expr string
	// Assigned is the instance currently backing the slot.
	Assigned string
	// Shard is the slot's shard on this node: the joint match pins
	// non-migratable slots to their exact (node, shard) home.
	Shard int
	// Migratable marks a sole-predicate property sub-promise, the only
	// kind the matcher may re-home (within or across nodes).
	Migratable bool
	// CrossNode additionally allows re-homing on another node: true for
	// plain sub-promises, false for members of a node-local composite
	// (the node's directory could not track a part leaving the node).
	CrossNode bool
	// Client, Expires, Priority and Preemptible identify the promise for
	// cross-node reconstruction.
	Client      string
	Expires     time.Time
	Priority    int
	Preemptible bool
}

// FedCandidate is one instance available to the joint match.
type FedCandidate struct {
	// Instance is the instance id (globally unique across the cluster).
	Instance string
	// Shard is the instance's shard on this node.
	Shard int
	// Props are the instance's properties.
	Props map[string]predicate.Value
	// Tentative marks an instance currently backing a slot (usable only
	// through rearrangement).
	Tentative bool
}

// FedContext is a node's property-match state at reserve time, read
// transactionally under the session's shard locks.
type FedContext struct {
	Slots      []FedSlot
	Candidates []FedCandidate
}

// FedReserveResult reports a FedReserve outcome. Exactly one of Reject and
// SessionID is meaningful: a reject aborted the whole node-side pipeline
// (nothing is held); otherwise the session stays open until FedConfirm,
// FedAbort or the TTL.
type FedReserveResult struct {
	// SessionID names the open session for Confirm/Abort.
	SessionID string
	// Granted are the parts tentatively granted at reserve (fixed
	// predicates), with original request positions. They commit only on
	// Confirm.
	Granted []GrantedPart
	// Deferred lists original positions of named predicates this node
	// deferred into the joint match (their instance is tentatively held by
	// a property slot, so granting them displaces it — matching mode
	// only). The caller must place them via FedConfirmSpec.Pinned.
	Deferred []int
	// Context is the node's property-match state, when requested or when
	// predicates were deferred.
	Context *FedContext
	// Reject, when non-nil, is the node's rejection; the session is gone.
	Reject *PromiseResponse
}

// FedRealloc re-backs one slot of this node with another instance of this
// node (same shard or not — the node converts a cross-shard entry into an
// internal migration itself).
type FedRealloc struct {
	Slot     string
	Instance string
}

// FedMigrateIn re-homes a slot from another node onto an instance of this
// node, preserving the promise's id, client, expiry, tier and spot flag.
type FedMigrateIn struct {
	ID       string
	Client   string
	Expr     string
	Expires  time.Time
	Instance string
	// FromNode names the source node, for the migration event.
	FromNode    string
	Priority    int
	Preemptible bool
}

// FedPinned grants one floating predicate of the original request onto an
// instance of this node.
type FedPinned struct {
	Predicate Predicate
	PredIdx   int
	Instance  string
}

// FedConfirmSpec is the caller's plan for this node: apply and commit.
type FedConfirmSpec struct {
	Realloc    []FedRealloc
	MigrateOut []string
	MigrateIn  []FedMigrateIn
	Pinned     []FedPinned
}

// fedSession is one open federated grant session: the shard locks are
// held (unlock releases them), the session's reservations are open, and
// the TTL alarm aborts it if the caller never returns.
type fedSession struct {
	g       *grantSession
	unlock  func()
	stopTTL func()
}

// fedInit lazily creates the session table on a Manager.
func (s *Manager) fedInit() {
	s.fedMu.Lock()
	if s.fedSessions == nil {
		s.fedSessions = make(map[string]*fedSession)
		s.fedIDs = ids.New(s.ns + "fed")
	}
	s.fedMu.Unlock()
}

// FedReserve opens a federated session: it locks every shard, opens a
// grant session over them — releases and fixed predicates applied through
// open reservations, pre-filtered to the shards that matter exactly as a
// local cross-shard grant would — and exports the property-match context
// when asked. The caller owns the session until FedConfirm/FedAbort; the
// TTL is the backstop. Reserving nodes in ascending node-id order is the
// caller's side of deadlock avoidance — the node-level analogue of
// lockShards.
func (s *Manager) FedReserve(ctx context.Context, client string, spec FedReserveSpec) (*FedReserveResult, error) {
	if client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	// A degraded node refuses to open new federated sessions; FedAbort
	// stays available so peers can clean up sessions already reserved.
	if err := s.health.reject(); err != nil {
		return nil, err
	}
	if len(spec.Predicates) != len(spec.PredIdx) {
		return nil, fmt.Errorf("%w: fed reserve: %d predicates, %d positions", ErrBadRequest, len(spec.Predicates), len(spec.PredIdx))
	}
	s.fedInit()

	// A federated session holds every shard lock: cross-node grants are
	// rare next to their own network round trips, and the full set makes
	// the pre-filter clamp vacuous (no widen signal can reach the wire).
	all := s.allShards()
	unlock := s.lockShards(all)
	var g *grantSession
	done := false
	defer func() {
		if !done {
			if g != nil {
				g.abort()
			}
			unlock()
		}
	}()
	g, rej, err := s.openSession(ctx, client, spec)
	if err == nil && rej == nil {
		rej, err = g.reserve(ctx, all)
	}
	if err != nil {
		return nil, err
	}
	if rej != nil {
		return &FedReserveResult{Reject: rej}, nil
	}

	res := &FedReserveResult{Granted: g.granted(), Deferred: g.deferred()}
	if spec.WantProps || len(res.Deferred) > 0 {
		if res.Context, err = s.fedContext(g.resvs); err != nil {
			return nil, err
		}
	}

	sess := &fedSession{g: g, unlock: unlock}
	ttl := spec.TTL
	if ttl <= 0 {
		ttl = DefaultFedTTL
	}
	if ttl > MaxFedTTL {
		ttl = MaxFedTTL
	}
	s.fedMu.Lock()
	res.SessionID = s.fedIDs.Next()
	s.fedSessions[res.SessionID] = sess
	s.fedMu.Unlock()
	if al, ok := s.clk.(clock.Alarmer); ok {
		sid := res.SessionID
		sess.stopTTL = al.AfterFunc(s.clk.Now().Add(ttl), func() { s.FedAbort(sid) })
	}
	done = true // the session now owns unlock
	return res, nil
}

// fedContext reads the reserved shards' property-match state. Cross-node
// migratability additionally requires the slot not be a composite member:
// the node's directory cannot follow a part off the node.
func (s *Manager) fedContext(resvs map[int]*Reservation) (*FedContext, error) {
	out := &FedContext{}
	for _, sh := range sortedKeys(resvs) {
		pc, err := resvs[sh].PropertyContext()
		if err != nil {
			return nil, err
		}
		for _, slot := range pc.Slots {
			pid, _, ok := parseSlotKey(slot.Key)
			if !ok {
				return nil, fmt.Errorf("core: malformed slot key %q", slot.Key)
			}
			p, err := s.shards[sh].promise(resvs[sh].tx, pid)
			if err != nil {
				return nil, fmt.Errorf("core: slot %s: %w", slot.Key, err)
			}
			s.dirMu.Lock()
			_, member := s.partOf[pid]
			s.dirMu.Unlock()
			out.Slots = append(out.Slots, FedSlot{
				Key:         slot.Key,
				Expr:        slot.Expr.String(),
				Assigned:    slot.Assigned,
				Shard:       sh,
				Migratable:  slot.Migratable,
				CrossNode:   slot.Migratable && !member,
				Client:      p.Client,
				Expires:     p.Expires,
				Priority:    p.Priority,
				Preemptible: p.Preemptible,
			})
		}
		for _, c := range pc.Candidates {
			out.Candidates = append(out.Candidates, FedCandidate{
				Instance:  c.Instance.ID,
				Shard:     sh,
				Props:     c.Instance.Props,
				Tentative: c.Tentative,
			})
		}
	}
	return out, nil
}

// claimFedSession removes and returns the session, stopping its TTL alarm.
func (s *Manager) claimFedSession(id string) *fedSession {
	s.fedMu.Lock()
	sess := s.fedSessions[id]
	delete(s.fedSessions, id)
	s.fedMu.Unlock()
	if sess != nil && sess.stopTTL != nil {
		sess.stopTTL()
	}
	return sess
}

// FedConfirm has the session apply the caller's plan and commit (see
// grantSession.apply and commit). It returns every part this session
// granted (reserve-time fixed parts plus the pinned grants), in shard
// order.
func (s *Manager) FedConfirm(ctx context.Context, sessionID string, spec FedConfirmSpec) (parts []GrantedPart, err error) {
	sess := s.claimFedSession(sessionID)
	if sess == nil {
		return nil, fmt.Errorf("%w: fed session %s (expired or finished)", ErrPromiseNotFound, sessionID)
	}
	// Deferred first, so it runs last: once the session's shard locks are
	// released, one sync covers every part commit and directory record.
	defer func() {
		if err = s.syncAfter(err); err != nil {
			parts = nil
		}
	}()
	defer sess.unlock()
	g := sess.g
	defer g.abort()
	// A node that degraded after reserving refuses the commit and hands
	// the reservations back; the coordinator node sees a plain failed
	// confirm and compensates as usual.
	if err := s.health.reject(); err != nil {
		return nil, err
	}
	if err := g.apply(spec); err != nil {
		return nil, err
	}
	confirmed, err := g.commit(ctx, func() {
		// Federated moves: arrivals route through the moved directory
		// (their id prefix is another node's); departures retire any moved
		// entry so this node answers not-found and the caller's broadcast
		// finds the promise at its new home.
		s.dirMu.Lock()
		defer s.dirMu.Unlock()
		for i, mi := range spec.MigrateIn {
			s.rehomeLocked(mi.ID, g.inShards[i])
		}
		for _, id := range spec.MigrateOut {
			s.rehomeLocked(id, -1)
		}
	})
	if err != nil {
		return nil, err
	}
	parts = make([]GrantedPart, len(confirmed))
	for i, c := range confirmed {
		parts[i] = GrantedPart{ID: c.id, PredIdx: c.predIdx, Expires: c.expires}
	}
	return parts, nil
}

// FedAbort rolls back an open session, releasing its shard locks.
// Idempotent: aborting a finished or unknown session is a no-op, so a
// caller retrying over a flaky link never double-faults.
func (s *Manager) FedAbort(sessionID string) {
	sess := s.claimFedSession(sessionID)
	if sess == nil {
		return
	}
	sess.g.abort()
	sess.unlock()
}

// FedAbortAll aborts every open session — what a crash does to in-memory
// reservation state (the simulator calls it on injected crashes; a real
// process loses the sessions with the process).
func (s *Manager) FedAbortAll() {
	s.fedMu.Lock()
	ids := make([]string, 0, len(s.fedSessions))
	for id := range s.fedSessions {
		ids = append(ids, id)
	}
	s.fedMu.Unlock()
	for _, id := range ids {
		s.FedAbort(id)
	}
}

// NodeSummary aggregates the node's per-shard candidate-index summaries —
// the PR 5/7 pre-filter lifted to cluster granularity, so a cluster
// engine can skip nodes that provably cannot contribute to a property
// match. JSON-encodable (predicate.Value keys marshal as text) for the
// GET /cluster/summary endpoint.
type NodeSummary struct {
	// Hostable counts instances that could host a property slot.
	Hostable int
	// Slots counts active property slots.
	Slots int
	// Pinned and MinPinnedExpiry carry the staleness signal: with pinned
	// instances at or past MinPinnedExpiry, a cannot-contribute verdict
	// is no longer trustworthy.
	Pinned          int
	MinPinnedExpiry time.Time
	// ByProp is the per-value hostable-candidate index, merged across
	// shards.
	ByProp map[string]map[predicate.Value]int
}

// FedSummary snapshots the node's candidate summaries, lock-free.
func (s *Manager) FedSummary() NodeSummary {
	out := NodeSummary{ByProp: make(map[string]map[predicate.Value]int)}
	for _, sh := range s.shards {
		sum := sh.cand.summary.Load()
		out.Hostable += sum.Hostable
		out.Slots += sum.Slots
		if sum.Pinned > 0 {
			if out.Pinned == 0 || sum.MinPinnedExpiry.Before(out.MinPinnedExpiry) {
				out.MinPinnedExpiry = sum.MinPinnedExpiry
			}
			out.Pinned += sum.Pinned
		}
		for prop, byVal := range sum.ByProp {
			m := out.ByProp[prop]
			if m == nil {
				m = make(map[predicate.Value]int)
				out.ByProp[prop] = m
			}
			for v, n := range byVal {
				m[v] += n
			}
		}
	}
	return out
}

// MayHost conservatively reports whether the summarized node might host an
// instance satisfying e — the tier-2 value-pruning answer at node
// granularity. Unindexable shapes report true.
func (sum NodeSummary) MayHost(e predicate.Expr) bool {
	may, ok := indexMay(e, sum.ByProp)
	return !ok || may
}

// Stale reports whether the summary's cannot-contribute verdicts are
// trustworthy at now (see candSummary staleness in candidates.go).
func (sum NodeSummary) Stale(now time.Time) bool {
	return sum.Pinned > 0 && !now.Before(sum.MinPinnedExpiry)
}
