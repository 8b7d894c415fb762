package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// CompositePrefix marks a cluster-composite promise id: a multi-node grant
// is identified as "cx!<part>+<part>+…", self-describing so any engine
// instance (or a fresh one) can expand it without shared directory state —
// the part ids carry their home-node namespace ("n0!prm…").
const CompositePrefix = "cx!"

// reasonJointUnsat is the rejection reason a matching-mode engine emits
// when floating predicates cannot be satisfied together with the
// outstanding promises. It must match core's wording exactly: the engine
// recognises it in a node's direct-path rejection as the signal to retry
// the grant through the federated path, where every node's candidates are
// in scope.
const reasonJointUnsat = "property predicates not jointly satisfiable with outstanding promises"

// Config configures a cluster Engine.
type Config struct {
	// Ports are the member nodes. Ids must be unique; they double as the
	// nodes' promise-id namespaces.
	Ports []NodePort
	// VNodes is the consistent-hash virtual-node count (0 = DefaultVNodes).
	VNodes int
	// Clock drives staleness decisions; nil means the system clock.
	Clock clock.Clock
	// Mode must mirror the member nodes' property mode.
	Mode core.PropertyMode
	// ReserveTTL bounds federated sessions server-side (0 = node default).
	ReserveTTL time.Duration
	// ReconcileEvery, when positive, runs Reconcile on that cadence in the
	// background (clock-alarm driven, so a Fake clock advances it
	// deterministically), retrying queued compensations without an
	// operator in the loop. Zero leaves Reconcile manual. Requires a Clock
	// that implements clock.Alarmer (System and Fake both do).
	ReconcileEvery time.Duration
	// Breaker, when non-nil, wraps every port in a per-node circuit
	// breaker (see BreakerPort): consecutive transport failures open the
	// circuit and calls to that node fail fast with ErrNodeUnavailable
	// until a cooldown probe succeeds. Ports already wrapped in a
	// BreakerPort are reused, so an Engine and a Coordinator handed the
	// same wrapped ports share one breaker per node.
	Breaker *BreakerConfig
}

// Engine federates the member nodes into one promises.Engine. Single-node
// traffic — the overwhelmingly common case, by construction of the ring —
// is forwarded to the owning node in one round trip, bypassing every other
// node and the coordinator. Grants that span nodes (multi-pool composites,
// property predicates) run the two-phase reserve/confirm path with a
// cluster-level joint property match between the phases.
type Engine struct {
	ring  *Ring
	order []string
	ports map[string]NodePort
	clk   clock.Clock
	mode  core.PropertyMode
	ttl   time.Duration

	watchMu  sync.Mutex
	watchSeq atomic.Uint64

	reconcileEvery time.Duration

	mu            sync.Mutex
	pending       []pendingRelease
	closed        bool
	reconcileStop func()
}

// pendingRelease is a compensation that could not be delivered (its node
// was unreachable when a partial confirm failure was being unwound).
// Reconcile retries these; until it succeeds the node may hold parts of a
// grant the caller was told failed.
type pendingRelease struct {
	node   string
	client string
	ids    []string
}

// New builds an Engine over the given member ports.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Ports) == 0 {
		return nil, fmt.Errorf("cluster: engine needs at least one node port")
	}
	ports := make(map[string]NodePort, len(cfg.Ports))
	ids := make([]string, 0, len(cfg.Ports))
	for _, p := range cfg.Ports {
		id := p.ID()
		if _, dup := ports[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", id)
		}
		ports[id] = p
		ids = append(ids, id)
	}
	ring, err := NewRing(ids, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	if cfg.Breaker != nil {
		wrapBreakers(ports, *cfg.Breaker, clk)
	}
	e := &Engine{
		ring:           ring,
		order:          ring.Members(),
		ports:          ports,
		clk:            clk,
		mode:           cfg.Mode,
		ttl:            cfg.ReserveTTL,
		reconcileEvery: cfg.ReconcileEvery,
	}
	if e.reconcileEvery > 0 {
		if _, ok := clk.(clock.Alarmer); !ok {
			return nil, fmt.Errorf("cluster: ReconcileEvery needs a clock implementing clock.Alarmer")
		}
		e.scheduleReconcile()
	}
	return e, nil
}

// scheduleReconcile arms the next background Reconcile alarm. Each firing
// retries the pending compensation queue and re-arms, so the loop runs at
// the configured cadence until Close; manual Reconcile calls stay valid in
// between (the queue is shared and both paths drain it idempotently).
func (e *Engine) scheduleReconcile() {
	al := e.clk.(clock.Alarmer)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.reconcileStop = al.AfterFunc(e.clk.Now().Add(e.reconcileEvery), func() {
		_ = e.Reconcile(context.Background())
		e.scheduleReconcile()
	})
}

// Ring exposes the ownership ring (tools and tests).
func (e *Engine) Ring() *Ring { return e.ring }

// BreakerStates snapshots each node's circuit state. Empty when the
// engine was built without breakers.
func (e *Engine) BreakerStates() map[string]BreakerState {
	return breakerStates(e.ports)
}

// isComposite reports a cluster-composite id.
func isComposite(id string) bool { return strings.HasPrefix(id, CompositePrefix) }

// compositeParts expands a cluster-composite id.
func compositeParts(id string) []string {
	return strings.Split(strings.TrimPrefix(id, CompositePrefix), "+")
}

// ownerNode maps a promise id to its minting node via the id namespace.
// Migrated promises answer not-found there; callers fall back to a
// broadcast (the destination node's moved directory routes the id).
func (e *Engine) ownerNode(id string) (string, bool) {
	i := strings.IndexByte(id, '!')
	if i <= 0 {
		return "", false
	}
	_, ok := e.ports[id[:i]]
	return id[:i], ok
}

// scanPromiseRequest reports the nodes a request's fixed predicates and
// release targets live on, and whether it carries property predicates.
func (e *Engine) scanPromiseRequest(pr core.PromiseRequest) (map[string]bool, bool) {
	nodes := make(map[string]bool)
	hasProps := false
	for _, p := range pr.Predicates {
		switch p.View {
		case core.AnonymousView:
			nodes[e.ring.Owner(p.Pool)] = true
		case core.NamedView:
			nodes[e.ring.Owner(p.Instance)] = true
		case core.PropertyView:
			hasProps = true
		}
	}
	for _, rid := range pr.Releases {
		for _, part := range e.releaseTargets(rid) {
			if n, ok := e.ownerNode(part); ok {
				nodes[n] = true
			}
		}
	}
	return nodes, hasProps
}

// releaseTargets expands a release id into its node-level part ids.
func (e *Engine) releaseTargets(id string) []string {
	if isComposite(id) {
		return compositeParts(id)
	}
	return []string{id}
}

// Execute implements promises.Engine. Messages whose resources live on one
// node forward unchanged — one round trip, no coordinator. Messages that
// span nodes are supported for pure promise-request envelopes (each
// request grants through the federated path); cross-node envelopes mixing
// environments or actions are rejected, because their §6 atomicity cannot
// be preserved across node boundaries.
func (e *Engine) Execute(ctx context.Context, req core.Request) (*core.Response, error) {
	if req.Action != nil {
		return nil, fmt.Errorf("%w: cluster: function actions cannot cross node boundaries; use Request.ActionName", core.ErrBadRequest)
	}
	nodes := make(map[string]bool)
	hasProps := false
	for _, pr := range req.PromiseRequests {
		n, p := e.scanPromiseRequest(pr)
		for id := range n {
			nodes[id] = true
		}
		hasProps = hasProps || p
	}
	for _, env := range req.Env {
		for _, part := range e.releaseTargets(env.PromiseID) {
			if n, ok := e.ownerNode(part); ok {
				nodes[n] = true
			}
		}
	}
	for _, res := range append(append([]string(nil), req.Resources...), actionResources(req.ActionParams)...) {
		nodes[e.ring.Owner(res)] = true
	}

	if !hasProps && len(nodes) <= 1 {
		node := e.order[0]
		for n := range nodes {
			node = n
		}
		resp, err := e.ports[node].Execute(ctx, req)
		if err != nil {
			return nil, err
		}
		// A matching-mode node that rejected for joint unsatisfiability
		// only searched its own candidates; retry those requests with the
		// whole cluster in scope. Only pure grant envelopes retry — the
		// message's releases and action have already been applied.
		if e.mode == core.MatchingMode && len(req.Env) == 0 && req.ActionName == "" {
			for i := range resp.Promises {
				if !resp.Promises[i].Accepted && resp.Promises[i].Reason == reasonJointUnsat && i < len(req.PromiseRequests) {
					fed, err := e.grantFed(ctx, req.Client, req.PromiseRequests[i])
					if err == nil {
						resp.Promises[i] = fed
					}
				}
			}
		}
		return resp, nil
	}

	if len(req.Env) > 0 || req.ActionName != "" {
		return nil, fmt.Errorf("%w: cluster: message touches multiple nodes; cross-node envelopes support promise requests only", core.ErrBadRequest)
	}
	out := &core.Response{}
	for _, pr := range req.PromiseRequests {
		resp, err := e.grantOne(ctx, req.Client, pr)
		if err != nil {
			return nil, err
		}
		out.Promises = append(out.Promises, resp)
	}
	return out, nil
}

func actionResources(params map[string]string) []string {
	var out []string
	if p := params["pool"]; p != "" {
		out = append(out, p)
	}
	if p := params["instance"]; p != "" {
		out = append(out, p)
	}
	return out
}

// GrantBatch implements promises.Engine: each request grants individually
// through the cheapest path it qualifies for.
func (e *Engine) GrantBatch(ctx context.Context, client string, reqs []core.PromiseRequest) ([]core.PromiseResponse, error) {
	out := make([]core.PromiseResponse, 0, len(reqs))
	for _, pr := range reqs {
		resp, err := e.grantOne(ctx, client, pr)
		if err != nil {
			return nil, err
		}
		out = append(out, resp)
	}
	return out, nil
}

// grantOne routes one promise request: direct to the owning node when the
// request's resources live on one node and no predicate floats; otherwise
// the federated two-phase path.
func (e *Engine) grantOne(ctx context.Context, client string, pr core.PromiseRequest) (core.PromiseResponse, error) {
	nodes, hasProps := e.scanPromiseRequest(pr)
	if !hasProps && len(nodes) <= 1 {
		node := e.order[0]
		for n := range nodes {
			node = n
		}
		resps, err := e.ports[node].GrantBatch(ctx, client, []core.PromiseRequest{pr})
		if err != nil {
			return core.PromiseResponse{}, err
		}
		if len(resps) != 1 {
			return core.PromiseResponse{}, fmt.Errorf("cluster: node %s returned %d responses, want 1", node, len(resps))
		}
		resp := resps[0]
		if !resp.Accepted && resp.Reason == reasonJointUnsat && e.mode == core.MatchingMode {
			return e.grantFed(ctx, client, pr)
		}
		return resp, nil
	}
	return e.grantFed(ctx, client, pr)
}

// fedAttempt is one reserve→match→confirm try; grantFed drives its retry
// discipline (widen after a pruned match failure, re-locate after a stale
// release-target mapping).
type fedAttempt struct {
	widened bool
	loc     map[string]string // release part id -> node override
}

// grantFed grants one request through the federated two-phase path.
func (e *Engine) grantFed(ctx context.Context, client string, pr core.PromiseRequest) (core.PromiseResponse, error) {
	at := &fedAttempt{loc: make(map[string]string)}
	for attempt := 0; attempt < 4; attempt++ {
		resp, retry, err := e.tryFed(ctx, client, pr, at)
		if err != nil {
			return core.PromiseResponse{}, err
		}
		if !retry {
			return resp, nil
		}
	}
	return core.PromiseResponse{
		Correlation: pr.RequestID,
		Reason:      "cluster: federated grant did not converge",
	}, nil
}

// tryFed runs one federated attempt. retry=true means the attempt aborted
// cleanly and at was adjusted (widened scope or corrected locations) for
// another try.
func (e *Engine) tryFed(ctx context.Context, client string, pr core.PromiseRequest, at *fedAttempt) (core.PromiseResponse, bool, error) {
	reject := func(format string, args ...any) core.PromiseResponse {
		return core.PromiseResponse{Correlation: pr.RequestID, Reason: fmt.Sprintf(format, args...)}
	}

	// Route release targets by id namespace, overridden by anything the
	// locate pass discovered (migrated promises).
	relByNode := make(map[string][]string)
	for _, rid := range pr.Releases {
		for _, part := range e.releaseTargets(rid) {
			node, ok := at.loc[part], true
			if node == "" {
				node, ok = e.ownerNode(part)
			}
			if !ok {
				if node, ok = e.locate(ctx, client, part); !ok {
					return reject("release target %s: %v", rid, fmt.Errorf("%w: %s", core.ErrPromiseNotFound, part)), false, nil
				}
				at.loc[part] = node
			}
			relByNode[node] = append(relByNode[node], part)
		}
	}

	// Partition predicates: fixed ones to their ring owners, property ones
	// float — they travel to every involved node to scope its pre-filter
	// and exported context.
	fixedByNode := make(map[string][]int)
	var propIdx []int
	for i, p := range pr.Predicates {
		switch p.View {
		case core.AnonymousView:
			n := e.ring.Owner(p.Pool)
			fixedByNode[n] = append(fixedByNode[n], i)
		case core.NamedView:
			n := e.ring.Owner(p.Instance)
			fixedByNode[n] = append(fixedByNode[n], i)
		case core.PropertyView:
			propIdx = append(propIdx, i)
		}
	}

	involved := make(map[string]bool)
	for n := range relByNode {
		involved[n] = true
	}
	for n := range fixedByNode {
		involved[n] = true
	}
	pruned := false
	if len(propIdx) > 0 {
		if at.widened {
			for _, n := range e.order {
				involved[n] = true
			}
		} else {
			// Cluster-level pre-filter: skip nodes whose summary proves
			// they cannot contribute — no slots to rearrange, and either
			// nothing hostable or nothing the predicates' indexed values
			// could match. A stale or unreadable summary keeps the node in.
			now := e.clk.Now()
			for _, n := range e.order {
				if involved[n] {
					continue
				}
				sum, err := e.ports[n].FedSummary(ctx)
				if err != nil || sum.Stale(now) || sum.Slots > 0 {
					involved[n] = true
					continue
				}
				may := false
				for _, i := range propIdx {
					if sum.Hostable > 0 && sum.MayHost(pr.Predicates[i].Expr) {
						may = true
						break
					}
				}
				if may {
					involved[n] = true
				} else {
					pruned = true
				}
			}
		}
	}
	if len(involved) == 0 {
		involved[e.order[0]] = true
	}
	nodeOrder := sortedNodes(involved)

	// Phase 1: reserve ascending by node id — the node-level lock order
	// that keeps concurrent federated grants deadlock-free (each node's
	// TTL is the backstop for a caller that dies mid-pipeline).
	sessions := make(map[string]string)
	ctxs := make([]nodeContext, 0, len(nodeOrder))
	grantedByNode := make(map[string][]core.GrantedPart)
	var floating []floatRef
	for _, i := range propIdx {
		floating = append(floating, floatRef{idx: i})
	}
	abortAll := func() {
		for n, sid := range sessions {
			_ = e.ports[n].FedAbort(context.WithoutCancel(ctx), sid)
		}
	}
	for _, n := range nodeOrder {
		idxs := fixedByNode[n]
		preds := make([]core.Predicate, 0, len(idxs)+len(propIdx))
		predIdx := make([]int, 0, len(idxs)+len(propIdx))
		for _, i := range idxs {
			preds = append(preds, pr.Predicates[i])
			predIdx = append(predIdx, i)
		}
		for _, i := range propIdx {
			preds = append(preds, pr.Predicates[i])
			predIdx = append(predIdx, i)
		}
		res, err := e.ports[n].FedReserve(ctx, client, core.FedReserveSpec{
			Releases:    relByNode[n],
			Predicates:  preds,
			PredIdx:     predIdx,
			WantProps:   len(propIdx) > 0,
			Duration:    pr.Duration,
			MinDuration: pr.MinDuration,
			TTL:         e.ttl,
			Priority:    pr.Priority,
			Preemptible: pr.Preemptible,
		})
		if err != nil {
			abortAll()
			return core.PromiseResponse{}, false, err
		}
		if res.Reject != nil {
			abortAll()
			// A not-found release target may simply have migrated since we
			// routed it; re-locate and retry once per target.
			if strings.HasPrefix(res.Reject.Reason, "release target ") {
				if e.relocate(ctx, client, relByNode[n], at) {
					return core.PromiseResponse{}, true, nil
				}
			}
			out := *res.Reject
			out.Correlation = pr.RequestID
			return out, false, nil
		}
		sessions[n] = res.SessionID
		grantedByNode[n] = res.Granted
		ctxs = append(ctxs, nodeContext{node: n, fc: res.Context})
		for _, d := range res.Deferred {
			floating = append(floating, floatRef{idx: d, named: true})
		}
	}

	// Phase 2: the cluster-level joint match, when anything floats.
	specs := make(map[string]*core.FedConfirmSpec)
	for _, n := range nodeOrder {
		specs[n] = &core.FedConfirmSpec{}
	}
	if len(floating) > 0 {
		plan, ok, err := solveClusterMatch(ctxs, pr.Predicates, floating, e.mode)
		if err != nil {
			abortAll()
			return core.PromiseResponse{}, false, err
		}
		if !ok {
			abortAll()
			if pruned && !at.widened {
				// The pruned node set could not satisfy the match; widen to
				// every node and retry — the cluster analogue of the
				// pre-filter widen-retry inside a sharded grant.
				at.widened = true
				return core.PromiseResponse{}, true, nil
			}
			return reject("%s", reasonJointUnsat), false, nil
		}
		for n, ras := range plan.realloc {
			specs[n].Realloc = ras
		}
		for _, mv := range plan.moves {
			pid, ok := slotPromiseID(mv.slot.Key)
			if !ok {
				abortAll()
				return core.PromiseResponse{}, false, fmt.Errorf("cluster: malformed slot key %q", mv.slot.Key)
			}
			specs[mv.from].MigrateOut = append(specs[mv.from].MigrateOut, pid)
			specs[mv.to].MigrateIn = append(specs[mv.to].MigrateIn, core.FedMigrateIn{
				ID:       pid,
				Client:   mv.slot.Client,
				Expr:     mv.slot.Expr,
				Expires:  mv.slot.Expires,
				Instance: mv.inst,
				FromNode: mv.from,
			})
		}
		for n, pins := range plan.pinned {
			specs[n].Pinned = pins
		}
	}

	// Phase 3: confirm — destinations strictly before sources, so a
	// failure between confirms can only duplicate a migrating slot, never
	// lose it; the compensation pass then releases the duplicates.
	confirmOrder := append([]string(nil), nodeOrder...)
	sort.SliceStable(confirmOrder, func(i, j int) bool {
		di, dj := len(specs[confirmOrder[i]].MigrateIn) > 0, len(specs[confirmOrder[j]].MigrateIn) > 0
		if di != dj {
			return di
		}
		return confirmOrder[i] < confirmOrder[j]
	})
	partsByNode := make(map[string][]core.GrantedPart)
	var confirmed []string
	for _, n := range confirmOrder {
		sid := sessions[n]
		parts, err := e.ports[n].FedConfirm(ctx, sid, *specs[n])
		delete(sessions, n)
		if err != nil {
			// Ambiguous: the node may have applied the confirm and lost
			// the reply. Abort is idempotent (a no-op on a finished
			// session), and the node's reserve-time part ids plus its
			// migrated-in ids go on the reconcile queue — Release treats
			// already-gone promises as settled, so remediation converges
			// to exactly-nothing-held whichever way the confirm landed.
			_ = e.ports[n].FedAbort(context.WithoutCancel(ctx), sid)
			e.queueAmbiguous(client, n, grantedByNode[n], specs[n])
			abortAll() // the sessions not yet confirmed
			e.compensate(client, confirmed, specs, partsByNode)
			return core.PromiseResponse{}, false, fmt.Errorf("cluster: confirm on node %s failed: %w", n, err)
		}
		confirmed = append(confirmed, n)
		partsByNode[n] = parts
	}

	var parts []core.GrantedPart
	for _, n := range nodeOrder {
		parts = append(parts, partsByNode[n]...)
	}
	if len(parts) == 0 {
		return reject("nothing granted"), false, nil
	}
	resp := core.PromiseResponse{
		Correlation: pr.RequestID,
		Accepted:    true,
		Expires:     parts[0].Expires,
	}
	if len(parts) == 1 {
		resp.PromiseID = parts[0].ID
	} else {
		ids := make([]string, len(parts))
		for i, p := range parts {
			ids[i] = p.ID
			if p.Expires.Before(resp.Expires) {
				resp.Expires = p.Expires
			}
		}
		resp.PromiseID = CompositePrefix + strings.Join(ids, "+")
	}
	return resp, false, nil
}

// relocate re-resolves the given release part ids by broadcast; reports
// whether any mapping changed (so the caller should retry).
func (e *Engine) relocate(ctx context.Context, client string, parts []string, at *fedAttempt) bool {
	changed := false
	for _, part := range parts {
		prev := at.loc[part]
		if prev == "" {
			prev, _ = e.ownerNode(part)
		}
		if node, ok := e.locate(ctx, client, part); ok && node != prev {
			at.loc[part] = node
			changed = true
		}
	}
	return changed
}

// locate finds the node currently answering for a promise id: its home
// node first, then a broadcast (a migrated slot answers at its
// destination through the moved directory).
func (e *Engine) locate(ctx context.Context, client, id string) (string, bool) {
	tryNode := func(n string) bool {
		verdicts, err := e.ports[n].CheckBatch(ctx, client, []string{id})
		return err == nil && len(verdicts) == 1 && !errors.Is(verdicts[0], core.ErrPromiseNotFound)
	}
	home, hasHome := e.ownerNode(id)
	if hasHome && tryNode(home) {
		return home, true
	}
	for _, n := range e.order {
		if hasHome && n == home {
			continue
		}
		if tryNode(n) {
			return n, true
		}
	}
	return "", false
}

// compensate unwinds the confirmed slice of a partially-failed federated
// grant: every part those nodes committed — granted parts (the request's
// client) and migrated-in duplicates (their own clients) — is released.
// Nodes unreachable right now are queued for Reconcile.
func (e *Engine) compensate(client string, confirmed []string, specs map[string]*core.FedConfirmSpec, partsByNode map[string][]core.GrantedPart) {
	for _, n := range confirmed {
		byClient := make(map[string][]string)
		for _, p := range partsByNode[n] {
			byClient[client] = append(byClient[client], p.ID)
		}
		for _, mi := range specs[n].MigrateIn {
			byClient[mi.Client] = append(byClient[mi.Client], mi.ID)
		}
		for cl, ids := range byClient {
			if err := e.ports[n].Release(context.Background(), cl, ids...); err != nil && !releaseSettled(err) {
				e.mu.Lock()
				e.pending = append(e.pending, pendingRelease{node: n, client: cl, ids: ids})
				e.mu.Unlock()
			}
		}
	}
}

// queueAmbiguous records the parts a node MAY hold after a confirm whose
// reply was lost: its reserve-time granted part ids and its migrated-in
// ids. Reconcile releases them; a confirm that never applied leaves
// nothing behind and the release settles as not-found.
func (e *Engine) queueAmbiguous(client, node string, granted []core.GrantedPart, spec *core.FedConfirmSpec) {
	byClient := make(map[string][]string)
	for _, g := range granted {
		byClient[client] = append(byClient[client], g.ID)
	}
	if spec != nil {
		for _, mi := range spec.MigrateIn {
			byClient[mi.Client] = append(byClient[mi.Client], mi.ID)
		}
	}
	e.mu.Lock()
	for cl, ids := range byClient {
		e.pending = append(e.pending, pendingRelease{node: node, client: cl, ids: ids})
	}
	e.mu.Unlock()
}

// releaseSettled reports an error that means the promise no longer holds
// anything — compensation has nothing left to do.
func releaseSettled(err error) bool {
	return errors.Is(err, core.ErrPromiseNotFound) ||
		errors.Is(err, core.ErrPromiseReleased) ||
		errors.Is(err, core.ErrPromiseExpired)
}

// Reconcile retries compensations that previously failed (their node was
// unreachable). Call it after a crashed node rejoins; the CheckBatch
// equivalence of a remediated cluster depends on it. Returns the first
// retry error; successfully settled entries leave the queue either way.
func (e *Engine) Reconcile(ctx context.Context) error {
	e.mu.Lock()
	pend := e.pending
	e.pending = nil
	e.mu.Unlock()
	var firstErr error
	var remaining []pendingRelease
	for _, p := range pend {
		err := e.ports[p.node].Release(ctx, p.client, p.ids...)
		if err != nil && !releaseSettled(err) {
			remaining = append(remaining, p)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if len(remaining) > 0 {
		e.mu.Lock()
		e.pending = append(remaining, e.pending...)
		e.mu.Unlock()
	}
	return firstErr
}

// PendingCompensations reports how many failed-grant unwind entries await
// Reconcile.
func (e *Engine) PendingCompensations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// CheckBatch implements promises.Engine. Plain ids check at their home
// node; cluster composites fan out to their parts; a not-found verdict
// falls back to a broadcast, because a migrated slot answers at its
// destination node.
func (e *Engine) CheckBatch(ctx context.Context, client string, ids []string) ([]error, error) {
	out := make([]error, len(ids))
	type ref struct {
		pos  int // index into ids
		part string
	}
	perNode := make(map[string][]ref)
	verdicts := make(map[int]map[string]error) // pos -> part -> verdict
	var unrouted []ref
	for i, id := range ids {
		verdicts[i] = make(map[string]error)
		for _, part := range e.releaseTargets(id) {
			if n, ok := e.ownerNode(part); ok {
				perNode[n] = append(perNode[n], ref{pos: i, part: part})
			} else {
				unrouted = append(unrouted, ref{pos: i, part: part})
			}
		}
	}
	for _, n := range sortedNodes(nodeSet(perNode)) {
		refs := perNode[n]
		partIDs := make([]string, len(refs))
		for i, r := range refs {
			partIDs[i] = r.part
		}
		vs, err := e.ports[n].CheckBatch(ctx, client, partIDs)
		if err != nil {
			return nil, err
		}
		for i, r := range refs {
			verdicts[r.pos][r.part] = vs[i]
		}
	}
	// Broadcast pass: unrouted parts, and routed parts whose home node
	// answered not-found (migrated away).
	var retry []ref
	retry = append(retry, unrouted...)
	for pos, parts := range verdicts {
		for part, v := range parts {
			if v != nil && errors.Is(v, core.ErrPromiseNotFound) {
				retry = append(retry, ref{pos: pos, part: part})
			}
		}
	}
	for _, r := range retry {
		v := error(fmt.Errorf("%w: %s", core.ErrPromiseNotFound, r.part))
		home, _ := e.ownerNode(r.part)
		for _, n := range e.order {
			if n == home {
				continue
			}
			vs, err := e.ports[n].CheckBatch(ctx, client, []string{r.part})
			if err != nil || len(vs) != 1 {
				continue
			}
			if vs[0] == nil || !errors.Is(vs[0], core.ErrPromiseNotFound) {
				v = vs[0]
				break
			}
		}
		verdicts[r.pos][r.part] = v
	}
	for i, id := range ids {
		for _, part := range e.releaseTargets(id) {
			if v := verdicts[i][part]; v != nil {
				out[i] = v
				break
			}
		}
	}
	return out, nil
}

// Release implements promises.Engine. Composite parts release at their
// nodes; a not-found group degrades to per-id broadcast location. Release
// is atomic per node; a cross-node composite that fails partway returns
// the error with the remaining parts still held.
func (e *Engine) Release(ctx context.Context, client string, ids ...string) error {
	perNode := make(map[string][]string)
	var unrouted []string
	for _, id := range ids {
		for _, part := range e.releaseTargets(id) {
			if n, ok := e.ownerNode(part); ok {
				perNode[n] = append(perNode[n], part)
			} else {
				unrouted = append(unrouted, part)
			}
		}
	}
	for _, n := range sortedNodes(nodeSet(perNode)) {
		err := e.ports[n].Release(ctx, client, perNode[n]...)
		if err == nil {
			continue
		}
		if !errors.Is(err, core.ErrPromiseNotFound) {
			return err
		}
		// Some part migrated away; release this node's group one id at a
		// time, following each miss to wherever the id now answers.
		for _, part := range perNode[n] {
			if err := e.releaseOne(ctx, client, n, part); err != nil {
				return err
			}
		}
	}
	for _, part := range unrouted {
		if err := e.releaseOne(ctx, client, "", part); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) releaseOne(ctx context.Context, client, home, part string) error {
	var lastErr error
	if home != "" {
		lastErr = e.ports[home].Release(ctx, client, part)
		if lastErr == nil || !errors.Is(lastErr, core.ErrPromiseNotFound) {
			return lastErr
		}
	}
	for _, n := range e.order {
		if n == home {
			continue
		}
		err := e.ports[n].Release(ctx, client, part)
		if err == nil {
			return nil
		}
		lastErr = err
		if !errors.Is(err, core.ErrPromiseNotFound) {
			return err
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %s", core.ErrPromiseNotFound, part)
	}
	return lastErr
}

// Watch implements promises.Engine: one fan-in stream over every node's
// events, re-stamped with a cluster-level strictly-increasing Seq (node
// sequence numbers are per-node and would collide). AfterSeq/Replay
// resume is not supported across the fan-in; options pass through
// otherwise.
func (e *Engine) Watch(ctx context.Context, opts core.WatchOptions) (<-chan core.Event, error) {
	nopts := opts
	nopts.AfterSeq = 0
	nopts.Replay = false
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 64
	}
	out := make(chan core.Event, buffer)
	var chans []<-chan core.Event
	for _, n := range e.order {
		ch, err := e.ports[n].Watch(ctx, nopts)
		if err != nil {
			return nil, fmt.Errorf("cluster: watch on node %s: %w", n, err)
		}
		chans = append(chans, ch)
	}
	var wg sync.WaitGroup
	for _, ch := range chans {
		wg.Add(1)
		go func(ch <-chan core.Event) {
			defer wg.Done()
			for ev := range ch {
				e.watchMu.Lock()
				ev.Seq = e.watchSeq.Add(1)
				out <- ev
				e.watchMu.Unlock()
			}
		}(ch)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// Stats implements promises.Engine: the sum of every node's counters.
// Latency percentiles and per-shard detail do not aggregate across nodes;
// scrape individual nodes for those.
func (e *Engine) Stats() core.Stats {
	var out core.Stats
	for _, n := range e.order {
		st := e.ports[n].Stats()
		out.Requests += st.Requests
		out.Grants += st.Grants
		out.Rejections += st.Rejections
		out.Releases += st.Releases
		out.Expirations += st.Expirations
		out.Violations += st.Violations
		out.ActionErrors += st.ActionErrors
		out.ExpiryErrors += st.ExpiryErrors
		out.PrefilterSkipped += st.PrefilterSkipped
		out.Preemptions += st.Preemptions
	}
	return out
}

// Audit implements promises.Engine: every node audits and the reports
// merge, with problems prefixed by their node id.
func (e *Engine) Audit() (*core.AuditReport, error) {
	out := &core.AuditReport{}
	for _, n := range e.order {
		rep, err := e.ports[n].Audit()
		if err != nil {
			return nil, fmt.Errorf("cluster: audit on node %s: %w", n, err)
		}
		out.ActivePromises += rep.ActivePromises
		out.Slots += rep.Slots
		for _, p := range rep.Problems {
			out.Problems = append(out.Problems, fmt.Sprintf("node %s: %s", n, p))
		}
	}
	return out, nil
}

// Close implements promises.Engine: stops the background Reconcile loop
// and closes every port.
func (e *Engine) Close() error {
	e.mu.Lock()
	e.closed = true
	stop := e.reconcileStop
	e.reconcileStop = nil
	e.mu.Unlock()
	if stop != nil {
		stop()
	}
	var firstErr error
	for _, n := range e.order {
		if err := e.ports[n].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func sortedNodes(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func nodeSet[T any](m map[string]T) map[string]bool {
	out := make(map[string]bool, len(m))
	for n := range m {
		out[n] = true
	}
	return out
}
