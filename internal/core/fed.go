package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/ids"
	"repro/internal/predicate"
)

// This file is the node-side half of cluster federation: a wire-facing
// wrapper around the PR 2 reserve/confirm pipeline that lets a *remote*
// coordinator (cluster.Engine, or the drain path of cluster.Coordinator)
// drive this node's shards as one participant of a cross-node two-phase
// grant. FedReserve opens a session — shard locks held, per-shard
// reservations open, fixed predicates tentatively granted — and exports the
// node's property-match state (slots + candidates) so the caller can solve
// the joint bipartite problem across nodes. FedConfirm applies the caller's
// plan (reallocations, slot migrations in and out of the node, pinned
// property grants) through the open reservations and commits; FedAbort
// rolls everything back. A TTL alarm aborts sessions whose caller died, so
// a crashed coordinator can never wedge a node's shard locks forever.

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
	// Client and Expires identify the promise for cross-node
	// reconstruction.
	Client  string
	Expires time.Time
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
// node, preserving the promise's id, client and expiry.
type FedMigrateIn struct {
	ID       string
	Client   string
	Expr     string
	Expires  time.Time
	Instance string
	// FromNode names the source node, for the migration event.
	FromNode string
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

// fedSession is one open federated reservation: the shard locks are held
// (unlock releases them), the per-shard reservations are open, and the TTL
// alarm aborts the session if the caller never returns.
type fedSession struct {
	client    string
	unlock    func()
	resvs     map[int]*Reservation
	durCapped time.Duration
	stopTTL   func()
}

// fedState lazily holds the session table on a Manager.
func (s *Manager) fedInit() {
	s.fedMu.Lock()
	if s.fedSessions == nil {
		s.fedSessions = make(map[string]*fedSession)
		s.fedIDs = ids.New(s.ns + "fed")
	}
	s.fedMu.Unlock()
}

// FedReserve opens a federated session: it locks every shard, applies the
// node's releases and fixed predicates through open reservations
// (pre-filtered to the shards that matter, exactly as a local cross-shard
// grant would), and exports the property-match context when asked. The
// caller owns the session until FedConfirm/FedAbort; the TTL is the
// backstop. Reserving nodes in ascending node-id order is the caller's
// side of deadlock avoidance — the node-level analogue of lockShards.
func (s *Manager) FedReserve(ctx context.Context, client string, spec FedReserveSpec) (*FedReserveResult, error) {
	if client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	// A degraded node refuses to open new federated sessions; FedAbort
	// stays available so peers can clean up sessions already reserved.
	if err := s.health.reject(); err != nil {
		return nil, err
	}
	reject := func(format string, args ...any) *FedReserveResult {
		return &FedReserveResult{Reject: &PromiseResponse{Reason: fmt.Sprintf(format, args...)}}
	}
	if len(spec.Predicates) != len(spec.PredIdx) {
		return nil, fmt.Errorf("%w: fed reserve: %d predicates, %d positions", ErrBadRequest, len(spec.Predicates), len(spec.PredIdx))
	}
	for _, p := range spec.Predicates {
		if err := p.Validate(); err != nil {
			return reject("invalid predicate %s: %v", p, err), nil
		}
	}
	s.fedInit()

	// Release targets route to their shards; composite targets expand.
	relByShard := make(map[int][]string)
	for _, rid := range spec.Releases {
		if isCompositeID(rid) {
			c := s.lookupComposite(client, rid)
			if c == nil {
				return reject("release target %s: %v", rid, fmt.Errorf("%w: %s", ErrPromiseNotFound, rid)), nil
			}
			for _, part := range c.parts {
				relByShard[part.shard] = append(relByShard[part.shard], part.id)
			}
			continue
		}
		sh, ok := s.ownerShard(rid)
		if !ok {
			return reject("release target %s: %v", rid, fmt.Errorf("%w: %s", ErrPromiseNotFound, rid)), nil
		}
		relByShard[sh] = append(relByShard[sh], rid)
	}

	durCapped, durReason := s.shards[0].grantDuration(ctx, spec.Duration, spec.MinDuration)
	if durReason != "" {
		s.shards[0].metrics.requests.Inc()
		s.shards[0].metrics.rejections.Inc()
		return reject("%s", durReason), nil
	}

	// A federated session holds every shard lock: cross-node grants are
	// rare next to their own network round trips, and the full set makes
	// the pre-filter clamp vacuous (no widen signal can reach the wire).
	unlock := s.lockShards(s.allShards())
	done := false
	defer func() {
		if !done {
			unlock()
		}
	}()

	// Partition predicates under the locks (the named-deferral peek must
	// be stable through commit). Property predicates are never granted at
	// reserve — they float in the caller's joint match.
	fixed := make(map[int][]int) // shard -> positions in spec.Predicates
	var floating []floatPred     // positions in spec.Predicates
	var deferred []int           // original request positions
	for i, p := range spec.Predicates {
		switch p.View {
		case AnonymousView:
			fixed[s.ShardOf(p.Pool)] = append(fixed[s.ShardOf(p.Pool)], i)
		case NamedView:
			if s.mode == MatchingMode {
				held, err := s.shards[s.ShardOf(p.Instance)].propertySlotHolder(p.Instance)
				if err != nil {
					return nil, err
				}
				if held {
					floating = append(floating, floatPred{idx: i, named: true})
					deferred = append(deferred, spec.PredIdx[i])
					continue
				}
			}
			fixed[s.ShardOf(p.Instance)] = append(fixed[s.ShardOf(p.Instance)], i)
		case PropertyView:
			floating = append(floating, floatPred{idx: i})
		}
	}

	involved := make(map[int]bool)
	for sh := range relByShard {
		involved[sh] = true
	}
	for sh := range fixed {
		involved[sh] = true
	}
	if len(floating) > 0 || spec.WantProps {
		pseudo := PromiseRequest{Predicates: spec.Predicates}
		for sh := range s.contributingShards(pseudo, floating) {
			involved[sh] = true
		}
		if skipped := len(s.shards) - len(involved); skipped > 0 {
			s.prefilterSkipped.Add(int64(skipped))
		}
	}
	if len(involved) == 0 {
		// Nothing fixed, released or contributing: reserve shard 0 so the
		// session still has a transaction to answer through.
		involved[0] = true
	}

	resvs := make(map[int]*Reservation)
	abortAll := func() {
		for _, sh := range sortedKeys(resvs) {
			resvs[sh].Abort()
		}
	}
	var granted []GrantedPart
	for _, sh := range sortedKeys(involved) {
		if err := ctx.Err(); err != nil {
			abortAll()
			return nil, err
		}
		idxs := fixed[sh]
		preds := make([]Predicate, len(idxs))
		orig := make([]int, len(idxs))
		for j, idx := range idxs {
			preds[j] = spec.Predicates[idx]
			orig[j] = spec.PredIdx[idx]
		}
		resv, rejResp, err := s.shards[sh].Reserve(ctx, client, ReserveRequest{
			Releases:    relByShard[sh],
			Predicates:  preds,
			PredIdx:     orig,
			Duration:    spec.Duration,
			MinDuration: spec.MinDuration,
			Priority:    spec.Priority,
			Preemptible: spec.Preemptible,
		})
		if err != nil {
			abortAll()
			return nil, err
		}
		if rejResp != nil {
			abortAll()
			return &FedReserveResult{Reject: rejResp}, nil
		}
		resvs[sh] = resv
		granted = append(granted, resv.Granted()...)
	}

	res := &FedReserveResult{Granted: granted, Deferred: deferred}
	if spec.WantProps || len(deferred) > 0 {
		fc, err := s.fedContext(resvs)
		if err != nil {
			abortAll()
			return nil, err
		}
		res.Context = fc
	}

	sess := &fedSession{client: client, unlock: unlock, resvs: resvs, durCapped: durCapped}
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
				Key:        slot.Key,
				Expr:       slot.Expr.String(),
				Assigned:   slot.Assigned,
				Shard:      sh,
				Migratable: slot.Migratable,
				CrossNode:  slot.Migratable && !member,
				Client:     p.Client,
				Expires:    p.Expires,
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

// FedConfirm applies the caller's plan through the session's open
// reservations and commits, mirroring a local pipeline's Phase 2/3:
// detachments strictly before attachments, confirms in ascending shard
// order, directory and expiry bookkeeping after the commits. It returns
// every part this session granted (reserve-time fixed parts plus the
// pinned grants), in shard order.
func (s *Manager) FedConfirm(ctx context.Context, sessionID string, spec FedConfirmSpec) ([]GrantedPart, error) {
	sess := s.claimFedSession(sessionID)
	if sess == nil {
		return nil, fmt.Errorf("%w: fed session %s (expired or finished)", ErrPromiseNotFound, sessionID)
	}
	defer sess.unlock()
	abortAll := func() {
		for _, sh := range sortedKeys(sess.resvs) {
			sess.resvs[sh].Abort()
		}
	}
	// A node that degraded after reserving refuses the commit and hands
	// the reservations back; the coordinator node sees a plain failed
	// confirm and compensates as usual.
	if err := s.health.reject(); err != nil {
		abortAll()
		return nil, err
	}
	resvFor := func(sh int) (*Reservation, error) {
		if r := sess.resvs[sh]; r != nil {
			return r, nil
		}
		return nil, fmt.Errorf("core: fed confirm touches unreserved shard %d", sh)
	}
	if err := ctx.Err(); err != nil {
		abortAll()
		return nil, err
	}

	// Classify reallocations: same-shard entries apply in place, cross-
	// shard entries become internal migrations (the caller plans at node
	// granularity; shards are this node's business).
	realloc := make(map[int]map[string]string)
	var internal []slotMigration
	for _, ra := range spec.Realloc {
		pid, _, ok := parseSlotKey(ra.Slot)
		if !ok {
			abortAll()
			return nil, fmt.Errorf("%w: malformed slot key %q", ErrBadRequest, ra.Slot)
		}
		from, ok := s.ownerShard(pid)
		if !ok {
			abortAll()
			return nil, fmt.Errorf("%w: realloc of unknown promise %s", ErrBadRequest, pid)
		}
		to := s.ShardOf(ra.Instance)
		if from == to {
			if realloc[from] == nil {
				realloc[from] = make(map[string]string)
			}
			realloc[from][ra.Slot] = ra.Instance
			continue
		}
		internal = append(internal, slotMigration{promiseID: pid, from: from, to: to, inst: ra.Instance})
	}

	// Detach: slots leaving the node, then slots moving between shards.
	outRows := make([]*Promise, len(spec.MigrateOut))
	for i, id := range spec.MigrateOut {
		sh, ok := s.ownerShard(id)
		if !ok {
			abortAll()
			return nil, fmt.Errorf("%w: migrate-out of unknown promise %s", ErrBadRequest, id)
		}
		resv, err := resvFor(sh)
		if err == nil {
			outRows[i], err = resv.MigrateOut(id)
		}
		if err != nil {
			abortAll()
			return nil, err
		}
	}
	outShards := make([]int, len(spec.MigrateOut))
	for i, id := range spec.MigrateOut {
		outShards[i], _ = s.ownerShard(id)
	}
	internalRows := make([]*Promise, len(internal))
	for i, mg := range internal {
		resv, err := resvFor(mg.from)
		if err == nil {
			internalRows[i], err = resv.MigrateOut(mg.promiseID)
		}
		if err != nil {
			abortAll()
			return nil, err
		}
	}

	// Re-back in place.
	for _, sh := range sortedKeys(realloc) {
		resv, err := resvFor(sh)
		if err == nil {
			err = resv.ApplyRealloc(realloc[sh])
		}
		if err != nil {
			abortAll()
			return nil, err
		}
	}

	// Attach: internal movers, then slots arriving from other nodes, then
	// the pinned grants of the new request.
	for i, mg := range internal {
		resv, err := resvFor(mg.to)
		if err == nil {
			err = resv.MigrateIn(internalRows[i], mg.inst)
		}
		if err != nil {
			abortAll()
			return nil, err
		}
	}
	inShards := make([]int, len(spec.MigrateIn))
	for i, mi := range spec.MigrateIn {
		expr, err := predicate.Parse(mi.Expr)
		if err != nil {
			abortAll()
			return nil, fmt.Errorf("%w: migrate-in %s: bad expression %q: %v", ErrBadRequest, mi.ID, mi.Expr, err)
		}
		sh := s.ShardOf(mi.Instance)
		inShards[i] = sh
		row := &Promise{
			ID:           mi.ID,
			Client:       mi.Client,
			Predicates:   []Predicate{{View: PropertyView, Expr: expr, Source: mi.Expr}},
			Assigned:     []string{""},
			DelegatedQty: make([]int64, 1),
			DelegatedID:  make([]string, 1),
			Expires:      mi.Expires,
			State:        Active,
		}
		resv, err := resvFor(sh)
		if err == nil {
			err = resv.MigrateIn(row, mi.Instance)
		}
		if err != nil {
			abortAll()
			return nil, err
		}
	}
	for _, pin := range spec.Pinned {
		sh := s.ShardOf(pin.Instance)
		resv, err := resvFor(sh)
		if err == nil {
			err = resv.GrantPinned([]Predicate{pin.Predicate}, []int{pin.PredIdx}, []string{pin.Instance}, sess.durCapped)
		}
		if err != nil {
			abortAll()
			return nil, err
		}
	}

	// Commit, ascending. Any migration (internal or federated) brackets
	// the confirms in the seqlock so lock-free readers can tell a racing
	// re-home from a definitive not-found.
	migrating := len(internal) > 0 || len(spec.MigrateOut) > 0 || len(spec.MigrateIn) > 0
	if migrating {
		s.migSeq.Add(1)
	}
	var confirmed []compositePart
	var parts []GrantedPart
	for _, sh := range sortedKeys(sess.resvs) {
		granted := sess.resvs[sh].Granted()
		if err := sess.resvs[sh].Confirm(); err != nil {
			if migrating {
				s.migSeq.Add(1)
			}
			abortAll()
			s.releaseParts(sess.client, confirmed)
			return nil, err
		}
		for _, g := range granted {
			confirmed = append(confirmed, compositePart{shard: sh, id: g.ID, predIdx: g.PredIdx, expires: g.Expires})
		}
		parts = append(parts, granted...)
	}
	s.commitMoves(internal)
	// Federated moves: arrivals route through the moved directory (their
	// id prefix is another node's); departures retire any moved entry so
	// this node answers not-found and the caller's broadcast finds the
	// promise at its new home.
	s.dirMu.Lock()
	for i, mi := range spec.MigrateIn {
		s.moved.Store(mi.ID, inShards[i])
	}
	for _, id := range spec.MigrateOut {
		s.moved.Delete(id)
	}
	s.dirMu.Unlock()
	for i, mi := range spec.MigrateIn {
		s.logDirMove(mi.ID, inShards[i])
	}
	for _, id := range spec.MigrateOut {
		s.logDirMove(id, -1)
	}
	if migrating {
		s.migSeq.Add(1)
	}

	now := s.clk.Now()
	var events []Event
	for i, mg := range internal {
		row := internalRows[i]
		s.shards[mg.to].trackExpiry(row.ID, row.Expires)
		events = append(events, Event{
			Type: EventMigrated, PromiseID: row.ID, Client: row.Client,
			Time: now, Expires: row.Expires,
			Reason: fmt.Sprintf("slot moved from shard %d to shard %d", mg.from, mg.to),
		})
	}
	for i, mi := range spec.MigrateIn {
		s.shards[inShards[i]].trackExpiry(mi.ID, mi.Expires)
		from := mi.FromNode
		if from == "" {
			from = "another node"
		}
		events = append(events, Event{
			Type: EventMigrated, PromiseID: mi.ID, Client: mi.Client,
			Time: now, Expires: mi.Expires,
			Reason: fmt.Sprintf("slot moved from node %s to node %s", from, strings.TrimSuffix(s.ns, "!")),
		})
	}
	if len(events) > 0 {
		s.bus.publish(events...)
	}
	if err := s.durSync(); err != nil {
		return nil, fmt.Errorf("core: commit not durable: %w", err)
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
	for _, sh := range sortedKeys(sess.resvs) {
		sess.resvs[sh].Abort()
	}
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
