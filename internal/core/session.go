package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/predicate"
)

// This file is the one pipeline a grant spanning this node's shards runs
// through: reserve → match → confirm over per-shard Reservations
// (reserve.go), held under the caller's shard locks. A local cross-shard
// grant (grantCross) drives a session start to finish in one call; a
// federated grant (fed.go) splits it across the wire, opening and
// reserving at FedReserve, then applying the remote coordinator's plan and
// committing at FedConfirm. Either way the same code partitions the
// request, reserves, applies the joint match's plan and commits.

// grantSession is one open reserve → match → confirm pipeline. Its
// methods never release shard locks; the owner holds them throughout and
// defers abort, which is a no-op once the session has committed.
type grantSession struct {
	s         *Manager
	client    string
	spec      FedReserveSpec
	durCapped time.Duration

	// The request, partitioned by openSession.
	relByShard   map[int][]string
	compositeRel bool
	fixed        map[int][]int // shard -> positions in spec.Predicates
	floating     []floatPred   // positions in spec.Predicates

	resvs     map[int]*Reservation
	preempted bool

	// Set by apply for commit: slots moving between this node's shards,
	// and slots arriving from or leaving for other nodes.
	internal     []slotMigration
	internalRows []*Promise
	migrateIn    []FedMigrateIn
	inShards     []int
	crossNode    bool
}

// openSession validates one request's slice for this node and partitions
// it; nothing is reserved yet. Release targets route to their owning
// shards, composite targets expanding into their parts (usability is
// checked by each shard's Reserve, under its transaction). Anonymous and
// named predicates bind to their resource's shard; property predicates
// float into the joint match. The caller must already hold the locks of
// the named predicates' shards: the deferral peek below must stay true
// through commit.
//
// The duration cap (manager clamp + context deadline) resolves here, so a
// request whose floor cannot be met rejects before any shard reserves,
// even when every predicate floats (shard configs agree, so any shard's
// answer is the answer). The capped value also prices the pinned grants,
// so a floating predicate cannot outlive the caller's deadline either.
func (s *Manager) openSession(ctx context.Context, client string, spec FedReserveSpec) (*grantSession, *PromiseResponse, error) {
	reject := func(format string, args ...any) (*grantSession, *PromiseResponse, error) {
		return nil, &PromiseResponse{Reason: fmt.Sprintf(format, args...)}, nil
	}
	for _, p := range spec.Predicates {
		if err := p.Validate(); err != nil {
			return reject("invalid predicate %s: %v", p, err)
		}
	}
	// Normalize the tier (spec is a copy) so the session and every shard
	// agree on it; shard configs share one DefaultPriority.
	if spec.Priority == 0 {
		spec.Priority = s.shards[0].cfg.DefaultPriority
	}
	g := &grantSession{s: s, client: client, spec: spec, relByShard: make(map[int][]string), fixed: make(map[int][]int)}
	for _, rid := range spec.Releases {
		if isCompositeID(rid) {
			g.compositeRel = true
			c := s.lookupComposite(client, rid)
			if c == nil {
				return reject("release target %s: %v", rid, fmt.Errorf("%w: %s", ErrPromiseNotFound, rid))
			}
			for _, part := range c.parts {
				g.relByShard[part.shard] = append(g.relByShard[part.shard], part.id)
			}
			continue
		}
		sh, ok := s.ownerShard(rid)
		if !ok {
			return reject("release target %s: %v", rid, fmt.Errorf("%w: %s", ErrPromiseNotFound, rid))
		}
		g.relByShard[sh] = append(g.relByShard[sh], rid)
	}

	durCapped, durReason := s.shards[0].grantDuration(ctx, spec.Duration, spec.MinDuration)
	if durReason != "" {
		s.shards[0].metrics.requests.Inc()
		s.shards[0].metrics.rejections.Inc()
		return reject("%s", durReason)
	}
	g.durCapped = durCapped

	for i, p := range spec.Predicates {
		switch p.View {
		case AnonymousView:
			g.fixed[s.ShardOf(p.Pool)] = append(g.fixed[s.ShardOf(p.Pool)], i)
		case NamedView:
			// A named predicate whose instance is tentatively allocated to
			// a property promise is deferred into the joint match: granting
			// it displaces that allocation, and the displaced slot may need
			// to land on any shard (first-fit never displaces, so it never
			// defers — the owning shard's planner rejects exactly as the
			// single store would). Re-peeked per request even though the
			// route already asked: an earlier request in the same message
			// can have granted a property promise onto this instance. The
			// deferred predicate floats, so reserve's clamp check catches a
			// displaced slot that may re-home beyond the held lock set.
			if s.mode == MatchingMode {
				held, err := s.shards[s.ShardOf(p.Instance)].propertySlotHolder(p.Instance)
				if err != nil {
					return nil, nil, err
				}
				if held {
					g.floating = append(g.floating, floatPred{idx: i, named: true})
					continue
				}
			}
			g.fixed[s.ShardOf(p.Instance)] = append(g.fixed[s.ShardOf(p.Instance)], i)
		case PropertyView:
			g.floating = append(g.floating, floatPred{idx: i})
		}
	}
	return g, nil, nil
}

// origIdx maps a position in spec.Predicates to the original request's.
func (g *grantSession) origIdx(i int) int {
	if g.spec.PredIdx == nil {
		return i
	}
	return g.spec.PredIdx[i]
}

// singleShard reports the one shard the request lives on when every
// predicate binds to it, every release target is its own and no release
// is a composite (which a shard cannot resolve).
func (g *grantSession) singleShard() (int, bool) {
	if len(g.floating) > 0 || len(g.fixed) != 1 || g.compositeRel {
		return 0, false
	}
	for sh := range g.fixed {
		for rsh := range g.relByShard {
			if rsh != sh {
				return 0, false
			}
		}
		return sh, true
	}
	return 0, false
}

// deferred lists the original positions of the named predicates deferred
// into the joint match.
func (g *grantSession) deferred() []int {
	var out []int
	for _, f := range g.floating {
		if f.named {
			out = append(out, g.origIdx(f.idx))
		}
	}
	return out
}

// reserve opens the session's reservations. Every involved shard
// tentatively applies its releases and grants its fixed predicates inside
// an open transaction. With floating predicates (or when the caller wants
// the property context), the candidate-index pre-filter decides which
// shards join: only those whose published index says they could
// contribute a slot, a candidate instance or a migration target (see
// contributingShards — shards with nothing to offer are provably
// irrelevant to the joint match and their reservations are skipped).
//
// Since the route itself is pre-filtered, the held lock set need not cover
// every shard, and summaries of unlocked shards can move while this runs.
// Equivalence with the single store survives the flap because of how the
// two outcomes linearize:
//
//   - Accepts are self-justifying: the match is solved over candidate
//     state read transactionally on reserved (locked) shards, and the plan
//     is applied and confirmed under those same locks. Extra capacity
//     appearing elsewhere can only keep a feasible request feasible, so no
//     flap invalidates an accept.
//   - Rejects linearize at the instant this re-read of the pre-filter
//     loads the unlocked shards' summaries. Locked shards are frozen from
//     acquisition through commit, so their state "now" is their state at
//     that instant; each unlocked shard's summary is its committed state
//     at its atomic load (commit hooks publish before the shard lock
//     releases). Together they form one consistent global state in which
//     every excluded shard provably contributes nothing — the exact state
//     a single store would have rejected. A shard that becomes useful
//     afterwards serializes the request before that commit.
//
// The one case with no such instant is a shard the re-read names as
// contributing whose lock the caller does not hold: it cannot be reserved,
// and excluding it would reject against a view no global state matches.
// That is errPrefilterWiden — the caller retries under the full lock set,
// where the clamp is vacuous (a federated session always holds it).
//
// A non-nil response is a shard's rejection (its transaction is rolled
// back; the owner's abort rolls back the rest, so releases spring back
// into force everywhere, §4).
func (g *grantSession) reserve(ctx context.Context, locked map[int]bool) (*PromiseResponse, error) {
	s := g.s
	involved := make(map[int]bool)
	for sh := range g.relByShard {
		involved[sh] = true
	}
	for sh := range g.fixed {
		involved[sh] = true
	}
	prefilter := len(g.floating) > 0 || g.spec.WantProps
	if prefilter {
		for sh := range s.contributingShards(g.spec.Predicates, g.floating) {
			if !locked[sh] {
				return nil, errPrefilterWiden
			}
			involved[sh] = true
		}
	}
	if len(involved) == 0 {
		// Nothing fixed, released or contributing: reserve one held shard
		// anyway so a rejection runs through the same counters and response
		// shape as always, and a federated session has a transaction to
		// answer through.
		involved[sortedKeys(locked)[0]] = true
	}
	if skipped := len(s.shards) - len(involved); prefilter && skipped > 0 {
		s.prefilterSkipped.Add(int64(skipped))
	}
	g.resvs = make(map[int]*Reservation, len(involved))
	for _, sh := range sortedKeys(involved) {
		idxs := g.fixed[sh]
		preds := make([]Predicate, len(idxs))
		orig := make([]int, len(idxs))
		for j, idx := range idxs {
			preds[j] = g.spec.Predicates[idx]
			orig[j] = g.origIdx(idx)
		}
		if rej, err := g.reserveShard(ctx, sh, g.relByShard[sh], preds, orig); rej != nil || err != nil {
			return rej, err
		}
	}
	return nil, nil
}

// freeHost is the free-host shortcut. It applies to a request whose
// predicates all float as property predicates, with nothing fixed and
// nothing released. Matching a new slot to a free instance (one no slot
// holds, even tentatively) keeps every existing assignment valid, so when
// the locked shards' matcher images (propmatch.go) show a distinct free
// satisfying instance for every predicate, the joint match would accept
// too: the shortcut reserves only the shards of those instances and pins
// the predicates there. It never rejects. A nil plan means "escalate":
// the session holds no reservation and runs the full reserve → match.
//
// The images are read under the shard locks the caller holds, so they are
// the committed state; after Reserve the shortcut re-checks that the
// reservation wrote nothing (a sweep that lapsed a promise changes what
// is free) and that each chosen instance is still free.
//
// In MatchingMode the choice spreads the load: the scan starts at a shard
// hashed from the request, takes the better of the first two shards with
// a free host (the one with more left), and within it the free instance
// the request's hash ranks first. Without that, grants pile onto low
// shards and low ids, and broad predicates leave narrow ones without a
// free host. In FirstFitMode it picks what SolveJoint would: the first
// free satisfying instance in (shard, id) order over the shards the
// re-read pre-filter names. That needs every such shard locked and no
// sweep due on one scanned before a chosen shard, since a sweep could
// free an earlier instance.
func (g *grantSession) freeHost(ctx context.Context, locked map[int]bool) (*JointPlan, error) {
	s := g.s
	if s.shards[0].cfg.disableFastPath || len(g.floating) == 0 || len(g.fixed) > 0 || len(g.relByShard) > 0 || g.compositeRel {
		return nil, nil
	}
	for _, f := range g.floating {
		if f.named {
			return nil, nil
		}
	}
	var order []int
	var spread uint32 // zero in first-fit: lowest ids first
	if s.mode == FirstFitMode {
		order = sortedKeys(s.contributingShards(g.spec.Predicates, g.floating))
		for _, sh := range order {
			if !locked[sh] {
				return nil, nil
			}
		}
	} else {
		spread = g.spreadKey()
		first := int(spread % uint32(len(s.shards)))
		for i := range s.shards {
			if sh := (first + i) % len(s.shards); locked[sh] {
				order = append(order, sh)
			}
		}
	}

	type host struct {
		shard int
		id    string
	}
	hosts := make([]host, len(g.floating))
	taken := func(id string) bool {
		for _, h := range hosts {
			if h.id == id {
				return true
			}
		}
		return false
	}
	// In first-fit each predicate takes a free satisfying instance of the
	// first shard in order that has one left. In MatchingMode it looks at
	// the first two shards in order that have one and takes the one with
	// more left (two choices keep free capacity level across the shards).
	for k, f := range g.floating {
		e := g.spec.Predicates[f.idx].Expr
		c := compilePred(e)
		most, seen := 0, 0
		for _, sh := range order {
			ce, free := s.shards[sh].pmatch.pickFree(e, c, taken, spread)
			if free == 0 {
				continue
			}
			if free > most {
				most, hosts[k] = free, host{shard: sh, id: ce.id}
			}
			if seen++; s.mode == FirstFitMode || seen == 2 {
				break
			}
		}
		if hosts[k].id == "" {
			return nil, nil
		}
	}
	if s.mode == FirstFitMode {
		// A sweep due on a shard scanned before a chosen one could free an
		// earlier instance; the chosen shards' own sweeps show as writes
		// after Reserve.
		last, chosen := 0, make(map[int]bool, len(hosts))
		for _, h := range hosts {
			last = max(last, h.shard)
			chosen[h.shard] = true
		}
		now := s.clk.Now()
		for _, sh := range order {
			if sh < last && !chosen[sh] && s.shards[sh].exp.due(now) {
				return nil, nil
			}
		}
	}

	escalate := func(err error) (*JointPlan, error) {
		g.abort()
		g.resvs = nil
		return nil, err
	}
	g.resvs = make(map[int]*Reservation, len(hosts))
	for _, h := range hosts {
		if g.resvs[h.shard] != nil {
			continue
		}
		if rej, err := g.reserveShard(ctx, h.shard, nil, nil, nil); err != nil || rej != nil {
			return escalate(err)
		}
	}
	pins := make([]FedPinned, len(hosts))
	for k, h := range hosts {
		ce := s.shards[h.shard].pmatch.cands[h.id]
		if g.resvs[h.shard].tx.Writes() != 0 || ce == nil || ce.tentative {
			return escalate(nil)
		}
		f := g.floating[k]
		pins[k] = FedPinned{Predicate: g.spec.Predicates[f.idx], PredIdx: g.origIdx(f.idx), Instance: h.id}
	}
	s.prefilterSkipped.Add(int64(len(s.shards) - len(g.resvs)))
	return &JointPlan{Pinned: map[string][]FedPinned{"": pins}}, nil
}

// spreadKey seeds MatchingMode's free-host choice: a hash of the request's
// client and first predicate text, never zero. It picks the shard the scan
// starts at and ranks the free instances within a shard, so different
// requests land on different shards and instances while a retried request
// lands where it did.
func (g *grantSession) spreadKey() uint32 {
	p := g.spec.Predicates[g.floating[0].idx]
	src := p.Source
	if src == "" {
		src = p.Expr.String()
	}
	return fnv1a(fnv1a(fnv1a(fnvOffset, g.client), "\x00"), src) | 1
}

// reserveRest reserves every shard the session does not hold yet, with
// nothing to release or grant. The preemption fallback needs them all:
// the victims that restore feasibility can hold instances anywhere, and
// the named-held instances of shards the pre-filter excluded become
// candidates once freed. An empty reservation cannot reject on capacity,
// so a rejection here is the duration floor, identical on every shard.
func (g *grantSession) reserveRest(ctx context.Context) (*PromiseResponse, error) {
	for i := range g.s.shards {
		if g.resvs[i] != nil {
			continue
		}
		if rej, err := g.reserveShard(ctx, i, nil, nil, nil); rej != nil || err != nil {
			return rej, err
		}
	}
	return nil, nil
}

// reserveShard opens shard sh's reservation: the one place a shard
// reserves. Cancellation is checked before each shard, so a context that
// dies while earlier shards reserve aborts everything before any Confirm.
func (g *grantSession) reserveShard(ctx context.Context, sh int, rels []string, preds []Predicate, predIdx []int) (*PromiseResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resv, rej, err := g.s.shards[sh].Reserve(ctx, g.client, ReserveRequest{
		Releases:    rels,
		Predicates:  preds,
		PredIdx:     predIdx,
		Duration:    g.spec.Duration,
		MinDuration: g.spec.MinDuration,
		Priority:    g.spec.Priority,
		Preemptible: g.spec.Preemptible,
	})
	if rej != nil || err != nil {
		return rej, err
	}
	g.resvs[sh] = resv
	return nil, nil
}

// granted lists the parts the reservations granted so far, in shard order.
func (g *grantSession) granted() []GrantedPart {
	var out []GrantedPart
	for _, sh := range sortedKeys(g.resvs) {
		out = append(out, g.resvs[sh].Granted()...)
	}
	return out
}

// solve runs the joint match (jointmatch.go) over the reserved shards,
// read through their open reservations, as the single node "". The
// contexts come straight from each shard's PropertyContext: parsed
// expressions, no export and no re-parsing, and — for a shard that has
// written nothing — its matcher image with compiled slots and index.
func (g *grantSession) solve() (*JointPlan, bool, error) {
	pcs := make([]*PropertyContext, 0, len(g.resvs))
	shards := sortedKeys(g.resvs)
	images := make(map[jointPlace]*propMatcher, len(shards))
	nSlots, nCands := 0, 0
	for _, sh := range shards {
		pc, err := g.resvs[sh].PropertyContext()
		if err != nil {
			return nil, false, err
		}
		pcs = append(pcs, pc)
		nSlots += len(pc.Slots)
		nCands += len(pc.Candidates)
		if pc.image != nil {
			images[jointPlace{shard: sh}] = pc.image
		}
	}
	slots := make([]JointSlot, 0, nSlots)
	cands := make([]JointCand, 0, nCands)
	for i, pc := range pcs {
		for _, sl := range pc.Slots {
			slots = append(slots, JointSlot{PropertySlot: sl, Shard: shards[i]})
		}
		for _, c := range pc.Candidates {
			cands = append(cands, JointCand{PropertyCandidate: c, Shard: shards[i]})
		}
	}
	preds := make([]Predicate, len(g.floating))
	predIdx := make([]int, len(g.floating))
	for k, f := range g.floating {
		preds[k] = g.spec.Predicates[f.idx]
		predIdx[k] = g.origIdx(f.idx)
	}
	plan, ok := solveJoint(slots, cands, images, preds, predIdx, g.s.mode)
	return plan, ok, nil
}

// apply carries a solved plan out through the open reservations, releases
// strictly before acquisitions: slots leaving the node and slots moving
// between its shards detach first, reallocations in place run per shard,
// then the movers re-attach and the new predicates pin to their chosen
// instances — each as a single-predicate sub-promise, so the slot stays
// migratable. Plans are made at node granularity; a reallocation onto
// another shard becomes an internal migration here.
func (g *grantSession) apply(spec FedConfirmSpec) error {
	s := g.s
	resvFor := func(sh int) (*Reservation, error) {
		if r := g.resvs[sh]; r != nil {
			return r, nil
		}
		return nil, fmt.Errorf("core: grant plan touches unreserved shard %d", sh)
	}

	var realloc map[int]map[string]string
	for _, ra := range spec.Realloc {
		pid, _, ok := parseSlotKey(ra.Slot)
		if !ok {
			return fmt.Errorf("%w: malformed slot key %q", ErrBadRequest, ra.Slot)
		}
		from, ok := s.ownerShard(pid)
		if !ok {
			return fmt.Errorf("%w: realloc of unknown promise %s", ErrBadRequest, pid)
		}
		to := s.ShardOf(ra.Instance)
		if from != to {
			g.internal = append(g.internal, slotMigration{promiseID: pid, from: from, to: to, inst: ra.Instance})
			continue
		}
		if realloc == nil {
			realloc = make(map[int]map[string]string)
		}
		if realloc[from] == nil {
			realloc[from] = make(map[string]string)
		}
		realloc[from][ra.Slot] = ra.Instance
	}

	// Detach: slots leaving the node, then slots moving between shards.
	for _, id := range spec.MigrateOut {
		sh, ok := s.ownerShard(id)
		if !ok {
			return fmt.Errorf("%w: migrate-out of unknown promise %s", ErrBadRequest, id)
		}
		resv, err := resvFor(sh)
		if err == nil {
			_, err = resv.MigrateOut(id)
		}
		if err != nil {
			return err
		}
	}
	g.internalRows = make([]*Promise, len(g.internal))
	for i, mg := range g.internal {
		resv, err := resvFor(mg.from)
		if err == nil {
			g.internalRows[i], err = resv.MigrateOut(mg.promiseID)
		}
		if err != nil {
			return err
		}
	}

	// Re-back in place.
	for _, sh := range sortedKeys(realloc) {
		resv, err := resvFor(sh)
		if err == nil {
			err = resv.ApplyRealloc(realloc[sh])
		}
		if err != nil {
			return err
		}
	}

	// Attach: internal movers, then slots arriving from other nodes (their
	// rows rebuilt with id, client, expiry, tier and spot flag intact),
	// then the pinned grants of the new request.
	for i, mg := range g.internal {
		resv, err := resvFor(mg.to)
		if err == nil {
			err = resv.MigrateIn(g.internalRows[i], mg.inst)
		}
		if err != nil {
			return err
		}
	}
	g.inShards = make([]int, len(spec.MigrateIn))
	for i, mi := range spec.MigrateIn {
		expr, err := predicate.Parse(mi.Expr)
		if err != nil {
			return fmt.Errorf("%w: migrate-in %s: bad expression %q: %v", ErrBadRequest, mi.ID, mi.Expr, err)
		}
		g.inShards[i] = s.ShardOf(mi.Instance)
		row := &Promise{
			ID:           mi.ID,
			Client:       mi.Client,
			Predicates:   []Predicate{{View: PropertyView, Expr: expr, Source: mi.Expr}},
			Assigned:     []string{""},
			DelegatedQty: make([]int64, 1),
			DelegatedID:  make([]string, 1),
			Expires:      mi.Expires,
			State:        Active,
			Priority:     mi.Priority,
			Preemptible:  mi.Preemptible,
		}
		resv, err := resvFor(g.inShards[i])
		if err == nil {
			err = resv.MigrateIn(row, mi.Instance)
		}
		if err != nil {
			return err
		}
	}
	for _, pin := range spec.Pinned {
		resv, err := resvFor(s.ShardOf(pin.Instance))
		if err == nil {
			err = resv.GrantPinned([]Predicate{pin.Predicate}, []int{pin.PredIdx}, []string{pin.Instance}, g.durCapped)
		}
		if err != nil {
			return err
		}
	}
	if g.preempted {
		// Name the displacing promise in every pending EventPreempted: the
		// lowest granted part id (a composite id does not exist until after
		// commit, and a single-part grant answers to its part id anyway).
		if parts := g.granted(); len(parts) > 0 {
			for _, sh := range sortedKeys(g.resvs) {
				g.resvs[sh].StampPreemptedBy(parts[0].ID)
			}
		}
	}
	g.migrateIn = spec.MigrateIn
	g.crossNode = len(spec.MigrateIn) > 0 || len(spec.MigrateOut) > 0
	return nil
}

// commit confirms every reservation in ascending shard order and returns
// the parts granted. Commit of an open reservation cannot conflict (the
// shard lock is held), so a failure here is an internal invariant break;
// parts already confirmed are handed back best-effort so no promise the
// client never learned about outlives the call. The last cancellation
// check sits before the first Confirm: past it the grant commits whole.
//
// Any migration brackets the confirms in the seqlock: they make a promise
// vanish from its source shard's snapshot before the moved directory
// re-routes it, and the odd value tells lock-free readers their miss may
// be this race rather than a definitive not-found. crossNode, when
// non-nil, runs inside the bracket after the internal moves are recorded.
func (g *grantSession) commit(ctx context.Context, crossNode func()) ([]compositePart, error) {
	s := g.s
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	migrating := len(g.internal) > 0 || g.crossNode
	if migrating {
		s.migSeq.Add(1)
	}
	var confirmed []compositePart
	for _, sh := range sortedKeys(g.resvs) {
		granted := g.resvs[sh].Granted()
		if err := g.resvs[sh].Confirm(); err != nil {
			if migrating {
				s.migSeq.Add(1)
			}
			g.abort()
			s.releaseParts(g.client, confirmed)
			return nil, err
		}
		for _, gp := range granted {
			confirmed = append(confirmed, compositePart{shard: sh, id: gp.ID, predIdx: gp.PredIdx, expires: gp.Expires})
		}
	}
	s.commitMoves(g.internal)
	if crossNode != nil {
		crossNode()
	}
	if migrating {
		s.migSeq.Add(1)
	}

	// The moved promises now live (and will expire) on their new shards;
	// their ids, clients and expiries are unchanged, and the shared bus
	// keeps their event streams continuous.
	if !migrating {
		return confirmed, nil
	}
	now := s.clk.Now()
	events := make([]Event, 0, len(g.internal)+len(g.migrateIn))
	for i, mg := range g.internal {
		row := g.internalRows[i]
		s.shards[mg.to].trackExpiry(row.ID, row.Expires)
		events = append(events, Event{
			Type: EventMigrated, PromiseID: row.ID, Client: row.Client,
			Time: now, Expires: row.Expires,
			Reason: fmt.Sprintf("slot moved from shard %d to shard %d", mg.from, mg.to),
		})
	}
	for i, mi := range g.migrateIn {
		s.shards[g.inShards[i]].trackExpiry(mi.ID, mi.Expires)
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
	return confirmed, nil
}

// abort rolls back every open reservation: releases spring back into
// force, tentative grants vanish and upstream promises acquired while
// planning are compensated. Idempotent, and a no-op after commit.
func (g *grantSession) abort() {
	for _, sh := range sortedKeys(g.resvs) {
		g.resvs[sh].Abort()
	}
}
