package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/escrow"
	"repro/internal/ids"
	"repro/internal/resource"
	"repro/internal/softlock"
	"repro/internal/txn"
)

// shard is one stripe of the engine: a private transactional store holding
// its slice of the promise table, the escrow ledger and the soft-lock tags,
// plus the resource pools and instances that hash to it. It runs the full
// single-store §8 semantics — every Execute is one ACID transaction against
// its store — and the Manager composes shards into the engine clients see.
type shard struct {
	// mu is the shard lock of the Manager's lock-ordering protocol.
	// Mutating operations (and the reserve/confirm pipeline, which requires
	// sole use of the store) hold it; read paths work from immutable store
	// snapshots and take it only to freeze a racing slot migration.
	mu         sync.Mutex
	store      *txn.Store
	rm         *resource.Manager
	ledger     *escrow.Ledger
	tags       *softlock.Tags
	clk        clock.Clock
	promiseIDs *ids.Generator
	cfg        Config
	metrics    managerMetrics
	bus        *EventBus
	exp        expiryIndex
	alarm      *deadlineAlarm // the engine's, shared by every shard
	cand       candidateIndex
	pmatch     propMatcher
	// preemptFilter vetoes preemption candidates by promise id: composite
	// members never join a shard-local victim set (a composite is displaced
	// whole or not at all, and only the Manager sees the whole).
	preemptFilter func(id string) bool
	// pubMu is held across a transaction's commit and the publication of
	// its events, so bus order equals commit order and a promise's
	// lifecycle events can never invert.
	pubMu sync.Mutex
	// index is the shard's position in the engine; commit records carry it.
	index int
	// durable mirrors this store's commits into the engine's write-ahead
	// log; nil on a non-durable engine.
	durable *durableEngine
	// health is the shared degraded-mode latch (nil on a non-durable
	// engine, which cannot degrade).
	health *engineHealth
}

// newShard creates one shard with a fresh store, installing its promise,
// escrow and soft-lock tables. cfg is already normalized by New; promise
// ids are issued as "<idPrefix>-<n>" and events publish on the shared bus.
func newShard(cfg Config, idPrefix string, bus *EventBus, preemptFilter func(id string) bool) (*shard, error) {
	store := txn.NewStore()
	rm, err := resource.NewManager(store)
	if err != nil {
		return nil, err
	}
	if err := store.CreateTable(TablePromises); err != nil {
		return nil, err
	}
	if err := store.CreateTable(TablePromisesDone); err != nil {
		return nil, err
	}
	ledger, err := escrow.NewLedger(store, rm)
	if err != nil {
		return nil, err
	}
	tags, err := softlock.NewTags(store, rm)
	if err != nil {
		return nil, err
	}
	m := &shard{
		store:         store,
		rm:            rm,
		ledger:        ledger,
		tags:          tags,
		clk:           cfg.Clock,
		promiseIDs:    ids.New(idPrefix),
		cfg:           cfg,
		bus:           bus,
		preemptFilter: preemptFilter,
	}
	// Every committed transaction publishes an immutable store snapshot
	// (txn/snapshot.go); stamping it with the bus sequence makes snapshot
	// epochs and Watch streams describe the same history, and the commit
	// hook keeps the property-candidate index (candidates.go) current for
	// the cross-shard reservation pre-filter. Both installs happen before
	// the shard is visible to any other goroutine.
	m.store.SetEpochSource(m.bus.Seq)
	m.candInit()
	m.store.SetCommitHook(m.onCommit)
	return m, nil
}

// execState carries cross-trust-domain compensation hooks for one request
// (upstream promises acquired during planning must be released if the local
// transaction aborts, and upstream releases must run only after it commits)
// plus metric deltas that apply only if the transaction commits.
type execState struct {
	undoUpstream []func()
	postCommit   []func()
	released     int64
	expired      int64
	preempted    int64
	// events records the request's lifecycle transitions; they publish on
	// the shared bus only after the transaction commits.
	events []Event
	// sweptDue are the expiry-heap entries the request-path due check
	// processed inside this transaction; they are removed from the heap
	// only after commit.
	sweptDue []expiryEntry
}

// Execute processes one client message: grants/rejects its promise
// requests, runs its action under its promise environment, applies release
// options atomically with action success, and performs the post-action
// promise check — all inside a single ACID transaction, exactly as §8
// prescribes. The caller holds the shard lock, and the store admits one
// transaction at a time besides, so requests never deadlock.
//
// The context bounds the whole call: cancellation is honoured before the
// transaction starts (a dead client never starts one) and propagates to
// upstream supplier calls made while planning. Work already committed is
// never undone by a late cancellation.
func (m *shard) Execute(ctx context.Context, req Request) (*Response, error) {
	if req.Client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	// Degraded read-only mode rejects mutations up front; reads
	// (CheckBatch, Watch, Stats) never come through here.
	if err := m.health.reject(); err != nil {
		return nil, err
	}
	if err := m.resolveAction(&req); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := m.clk.Now()
	resp, err := m.execute(ctx, req)
	if err != nil {
		return nil, err
	}
	m.observeExecute(start, resp)
	switch {
	case resp.ActionErr == nil:
	case errors.Is(resp.ActionErr, ErrPromiseViolated):
		m.metrics.violations.Inc()
	default:
		m.metrics.actionErrors.Inc()
	}
	return resp, nil
}

// resolveAction materialises req.ActionName through the configured resolver
// into req.Action, so the rest of the pipeline sees one action shape.
func (m *shard) resolveAction(req *Request) error {
	if req.ActionName == "" {
		return nil
	}
	if req.Action != nil {
		return fmt.Errorf("%w: both Action and ActionName set", ErrBadRequest)
	}
	if m.cfg.Actions == nil {
		return fmt.Errorf("%w: no action resolver configured for action %q", ErrBadRequest, req.ActionName)
	}
	named, err := m.cfg.Actions.ResolveAction(req.ActionName)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	params := req.ActionParams
	req.Action = func(ac *ActionContext) (any, error) { return named(params, ac) }
	return nil
}

func (m *shard) execute(ctx context.Context, req Request) (_ *Response, err error) {
	tx := m.store.Begin(txn.Block)
	st := &execState{}
	committed := false
	defer func() {
		if committed {
			return
		}
		if !tx.Done() {
			_ = tx.Abort()
		}
		// Compensate upstream promises acquired during this request.
		for i := len(st.undoUpstream) - 1; i >= 0; i-- {
			st.undoUpstream[i]()
		}
	}()

	if err := m.sweepExpired(tx, st); err != nil {
		return nil, err
	}

	resp := &Response{}
	for _, pr := range req.PromiseRequests {
		presp, err := m.processPromiseRequest(ctx, tx, st, req.Client, pr)
		if err != nil {
			return nil, err
		}
		resp.Promises = append(resp.Promises, presp)
	}

	envErr := m.validateEnv(tx, req.Client, req.Env)
	switch {
	case req.Action != nil:
		if envErr != nil {
			resp.ActionErr = envErr
			break
		}
		sp := tx.Savepoint()
		postMark := len(st.postCommit)
		relMark := st.released
		evMark := len(st.events)
		result, aerr := runAction(req.Action, tx, m.rm)
		if aerr != nil {
			// Action failed: undo its changes; promises in the environment
			// remain in force (§4: "if the purchase fails … then the
			// promise should remain in force").
			if rerr := tx.RollbackTo(sp); rerr != nil {
				return nil, rerr
			}
			resp.ActionErr = aerr
			break
		}
		// Release options apply atomically with action success.
		if rerr := m.applyEnvReleases(tx, st, req.Client, req.Env); rerr != nil {
			return nil, rerr
		}
		if !m.cfg.DisablePostCheck {
			if verr := m.checkAll(tx); verr != nil {
				// §8: "the promise manager will roll back the changes made
				// by the Action and return a failure message".
				if rerr := tx.RollbackTo(sp); rerr != nil {
					return nil, rerr
				}
				st.postCommit = st.postCommit[:postMark]
				st.released = relMark
				st.events = st.events[:evMark]
				resp.ActionErr = fmt.Errorf("%w: %v", ErrPromiseViolated, verr)
				ve := Event{Type: EventViolated, Time: m.clk.Now(), Reason: verr.Error()}
				var v *violationError
				if errors.As(verr, &v) {
					ve.PromiseID, ve.Client = v.PromiseID, v.Client
				}
				st.events = append(st.events, ve)
				break
			}
		}
		resp.ActionResult = result
	case len(req.Env) > 0:
		// Pure promise-release message.
		if envErr != nil {
			resp.ActionErr = envErr
			break
		}
		if rerr := m.applyEnvReleases(tx, st, req.Client, req.Env); rerr != nil {
			return nil, rerr
		}
	}

	m.pubMu.Lock()
	if err := tx.Commit(); err != nil {
		m.pubMu.Unlock()
		return nil, err
	}
	committed = true
	m.bus.publish(st.events...)
	m.pubMu.Unlock()
	// A failed append of the commit or its events means its outcome may not
	// survive a crash. The commit stands either way, and bookkeeping below
	// still runs so the live engine stays consistent. The sync itself is
	// the entry point's, after the shard lock is released.
	durErr := m.durable.latched()
	m.metrics.releases.Add(st.released)
	m.metrics.expirations.Add(st.expired)
	m.metrics.preemptions.Add(st.preempted)
	for _, f := range st.postCommit {
		f()
	}
	// Tracked only after the grant events are published, so a deadline
	// alarm can never emit a promise's Expired ahead of its Granted.
	for _, pr := range resp.Promises {
		if pr.Accepted {
			m.trackExpiry(pr.PromiseID, pr.Expires)
		}
	}
	// Request-path expiry processed these entries inside the committed
	// transaction; drop them so they are not re-inspected forever when no
	// alarm-capable clock prunes the heap.
	if len(st.sweptDue) > 0 {
		m.exp.removeDue(m.clk.Now(), st.sweptDue)
	}
	if durErr != nil {
		return nil, fmt.Errorf("core: commit not durable: %w", durErr)
	}
	return resp, nil
}

// runAction executes the application action, converting panics into errors
// so an ill-behaved service cannot take down the manager.
func runAction(a Action, tx *txn.Tx, rm *resource.Manager) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: action panicked: %v", r)
		}
	}()
	return a(&ActionContext{Tx: tx, Resources: rm})
}

// processPromiseRequest evaluates one atomic <promise-request>. It returns
// the response to send; err is reserved for internal failures that must
// abort the whole message.
func (m *shard) processPromiseRequest(ctx context.Context, tx *txn.Tx, st *execState, client string, pr PromiseRequest) (PromiseResponse, error) {
	reject := func(format string, args ...any) PromiseResponse {
		return PromiseResponse{Correlation: pr.RequestID, Reason: fmt.Sprintf(format, args...)}
	}
	if len(pr.Predicates) == 0 {
		return reject("no predicates in promise request"), nil
	}
	for _, p := range pr.Predicates {
		if err := p.Validate(); err != nil {
			return reject("invalid predicate %s: %v", p, err), nil
		}
	}
	// Resolve promises to be handed back atomically with this grant (§4,
	// third requirement). They stay in force if the grant fails.
	var releases []*Promise
	for _, rid := range pr.Releases {
		p, err := m.promiseForClient(tx, client, rid)
		if err != nil {
			return reject("release target %s: %v", rid, err), nil
		}
		releases = append(releases, p)
	}

	duration, durReason := m.grantDuration(ctx, pr.Duration, pr.MinDuration)
	if durReason != "" {
		return reject("%s", durReason), nil
	}
	if pr.Priority == 0 {
		pr.Priority = m.cfg.DefaultPriority
	}
	plan, reason, counter, err := m.plan(ctx, tx, st, pr.Predicates, releases, duration)
	if err != nil {
		return PromiseResponse{}, err
	}
	var victims []*Promise
	if plan == nil {
		// Spot-capacity fallback: a positive-tier request the planner
		// rejected may displace strictly-lower-tier preemptible holds
		// (preempt.go). The rejection keeps the original reason when
		// preemption cannot help either.
		plan, victims, err = m.planPreempt(ctx, tx, st, pr.Predicates, releases, duration, pr.Priority)
		if err != nil {
			return PromiseResponse{}, err
		}
		if plan == nil {
			resp := reject("%s", reason)
			resp.Counter = counter
			return resp, nil
		}
	}

	for _, rp := range releases {
		if err := m.releasePromise(tx, st, rp, Released); err != nil {
			return PromiseResponse{}, err
		}
	}
	// The grant's id is allocated before the victims are revoked so each
	// EventPreempted can name the promise that displaced its holder.
	id := m.promiseIDs.Next()
	for _, vp := range victims {
		if err := m.preemptPromise(tx, st, vp, id, pr.Priority); err != nil {
			return PromiseResponse{}, err
		}
	}
	prm := &Promise{
		ID:          id,
		Client:      client,
		Predicates:  append([]Predicate(nil), pr.Predicates...),
		Expires:     m.clk.Now().Add(duration),
		State:       Active,
		Priority:    pr.Priority,
		Preemptible: pr.Preemptible,
	}
	if err := m.applyGrant(tx, prm, plan); err != nil {
		return PromiseResponse{}, err
	}
	ev := Event{Type: EventGranted, PromiseID: prm.ID, Client: client, Time: m.clk.Now(), Expires: prm.Expires}
	if len(releases) > 0 {
		// The §4 modify/upgrade shape: the new promise supersedes the ones
		// just handed back.
		ev.Type = EventRenewed
		ids := make([]string, len(releases))
		for i, rp := range releases {
			ids[i] = rp.ID
		}
		ev.Reason = "replaces " + strings.Join(ids, ",")
	}
	st.events = append(st.events, ev)
	return PromiseResponse{
		Correlation: pr.RequestID,
		Accepted:    true,
		PromiseID:   prm.ID,
		Expires:     prm.Expires,
	}, nil
}

func (m *shard) clampDuration(d time.Duration) time.Duration {
	if d <= 0 {
		d = m.cfg.DefaultDuration
	}
	if d > m.cfg.MaxDuration {
		d = m.cfg.MaxDuration
	}
	return d
}

// grantDuration resolves the duration a grant would carry: the requested
// duration clamped to the manager's cap, then capped by the request
// context's deadline — the two timeout vocabularies agree, so a promise
// never outlives the call-level deadline the client itself set. A non-empty
// reason rejects the request: the client declared (via min) that anything
// shorter is useless to it, the §6 "manager might … offer a guarantee that
// expires sooner than the client wished" direction with an explicit floor.
func (m *shard) grantDuration(ctx context.Context, requested, min time.Duration) (time.Duration, string) {
	d := m.clampDuration(requested)
	if deadline, ok := ctx.Deadline(); ok {
		// The deadline is wall-clock; durations are relative, so the cap
		// translates to any engine clock.
		if remaining := time.Until(deadline); remaining < d {
			d = remaining
		}
	}
	if min > 0 && d < min {
		return 0, fmt.Sprintf("cannot hold the promise for the required minimum %v: capped at %v by the manager and the request deadline", min, d.Round(time.Millisecond))
	}
	if d <= 0 {
		return 0, fmt.Sprintf("request deadline leaves no time to promise (%v)", d.Round(time.Millisecond))
	}
	return d, ""
}

// promiseForClient loads a usable promise owned by client, mapping state
// problems to the client-visible sentinel errors. It reads through any
// txn.Reader: a transaction on the write paths, a lock-free snapshot on
// the read paths.
func (m *shard) promiseForClient(r txn.Reader, client, id string) (*Promise, error) {
	p, err := m.promise(r, id)
	if err != nil {
		return nil, err
	}
	if p.Client != client {
		return nil, fmt.Errorf("%w: %s", ErrPromiseNotFound, id)
	}
	switch p.State {
	case Released:
		return nil, fmt.Errorf("%w: %s", ErrPromiseReleased, id)
	case Expired:
		return nil, fmt.Errorf("%w: %s", ErrPromiseExpired, id)
	case Preempted:
		return nil, fmt.Errorf("%w: %s", ErrPromisePreempted, id)
	}
	if !m.clk.Now().Before(p.Expires) {
		return nil, fmt.Errorf("%w: %s", ErrPromiseExpired, id)
	}
	return p, nil
}

func (m *shard) promise(r txn.Reader, id string) (*Promise, error) {
	row, err := r.Get(TablePromises, id)
	if errors.Is(err, txn.ErrNotFound) {
		row, err = r.Get(TablePromisesDone, id)
	}
	if errors.Is(err, txn.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrPromiseNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	p := row.(*promiseRow).p
	return &p, nil
}

// putPromise stores p in the table matching its state: active promises in
// the scanned promise table, terminal ones in the keyed-only done table.
func (m *shard) putPromise(tx *txn.Tx, p *Promise) error {
	if p.State == Active {
		return tx.Put(TablePromises, p.ID, &promiseRow{p: *p})
	}
	if err := tx.Delete(TablePromises, p.ID); err != nil && !errors.Is(err, txn.ErrNotFound) {
		return err
	}
	return tx.Put(TablePromisesDone, p.ID, &promiseRow{p: *p})
}

// validateEnv checks that every environment promise exists, belongs to the
// client, and has not expired or been released — the "promise-expired"
// check of §2.
func (m *shard) validateEnv(r txn.Reader, client string, env []EnvEntry) error {
	for _, e := range env {
		if _, err := m.promiseForClient(r, client, e.PromiseID); err != nil {
			return err
		}
	}
	return nil
}

// applyEnvReleases hands back every environment promise whose release
// option is set.
func (m *shard) applyEnvReleases(tx *txn.Tx, st *execState, client string, env []EnvEntry) error {
	for _, e := range env {
		if !e.Release {
			continue
		}
		p, err := m.promiseForClient(tx, client, e.PromiseID)
		if err != nil {
			return err
		}
		if err := m.releasePromise(tx, st, p, Released); err != nil {
			return err
		}
	}
	return nil
}

// releasePromise frees every hold backing p and marks it with the given
// terminal state (Released, Expired or Preempted).
func (m *shard) releasePromise(tx *txn.Tx, st *execState, p *Promise, terminal State) error {
	if p.State != Active {
		return nil
	}
	for i, pred := range p.Predicates {
		slot := slotKey(p.ID, i)
		switch pred.View {
		case AnonymousView:
			if _, err := m.ledger.ReleaseAll(tx, pred.Pool, slot); err != nil {
				return err
			}
			if i < len(p.DelegatedID) && p.DelegatedID[i] != "" {
				sup := m.cfg.Suppliers[pred.Pool]
				if sup != nil {
					id := p.DelegatedID[i]
					// Post-commit compensation must outlive the request's
					// context: the local release is already durable.
					st.postCommit = append(st.postCommit, func() { _ = sup.ReleasePromise(context.Background(), id) })
				}
			}
		case NamedView, PropertyView:
			inst := p.assignedAt(i)
			if inst == "" {
				continue
			}
			holder, err := m.tags.Holder(tx, inst)
			if err != nil {
				return err
			}
			if holder != slot {
				continue // the action already consumed it through Take, or a repair moved it
			}
			in, err := m.rm.Instance(tx, inst)
			if errors.Is(err, txn.ErrNotFound) {
				if ferr := m.tags.Forget(tx, inst, slot); ferr != nil {
					return ferr
				}
				continue
			}
			if err != nil {
				return err
			}
			if in.Status == resource.Promised {
				if err := m.tags.Release(tx, inst, slot); err != nil {
					return err
				}
			} else {
				// The application took (or otherwise moved) the instance
				// under this promise's protection; just drop the record.
				if err := m.tags.Forget(tx, inst, slot); err != nil {
					return err
				}
			}
		}
	}
	p.State = terminal
	typ := EventReleased
	switch terminal {
	case Expired:
		st.expired++
		typ = EventExpired
	case Preempted:
		st.preempted++
		typ = EventPreempted
	default:
		st.released++
	}
	st.events = append(st.events, Event{Type: typ, PromiseID: p.ID, Client: p.Client, Time: m.clk.Now()})
	return m.putPromise(tx, p)
}

// sweepExpired lapses active promises past their expiry, freeing their
// holds, so availability reflects only live promises (§2: "promises will
// expire at the end of this time"). It runs at the start of every request,
// but no longer scans the promise table: the expiry heap (expiry.go) names
// exactly the promises due, so the check is O(1) when nothing is due —
// normally the case, because the deadline pass already lapsed them — and
// O(expired) otherwise.
func (m *shard) sweepExpired(tx *txn.Tx, st *execState) error {
	now := m.clk.Now()
	for _, e := range m.exp.dueEntries(now) {
		if e.warn {
			// Warnings belong to the alarm path; without an alarm-capable
			// clock the request path emits (and retires) them instead, so
			// they cannot pile up in the heap.
			if m.alarm.alarmer == nil {
				if p, err := m.promise(tx, e.id); err == nil && p.State == Active && now.Before(p.Expires) {
					st.events = append(st.events, Event{
						Type: EventExpiryImminent, PromiseID: p.ID, Client: p.Client,
						Time: now, Expires: p.Expires,
					})
				}
				st.sweptDue = append(st.sweptDue, e)
			}
			continue
		}
		p, err := m.promise(tx, e.id)
		if errors.Is(err, ErrPromiseNotFound) {
			st.sweptDue = append(st.sweptDue, e)
			continue // migrated away, or an id this store never held
		}
		if err != nil {
			return err
		}
		if p.State == Active && !now.Before(p.Expires) {
			if err := m.releasePromise(tx, st, p, Expired); err != nil {
				return err
			}
		}
		st.sweptDue = append(st.sweptDue, e)
	}
	return nil
}

// PromiseInfo returns a copy of the promise with the given id, for
// inspection by tools and tests. It reads the latest committed store
// snapshot and acquires no lock, so it never queues behind grants.
func (m *shard) PromiseInfo(id string) (Promise, error) {
	p, err := m.promise(m.store.Snapshot(), id)
	if err != nil {
		return Promise{}, err
	}
	return *p, nil
}

// ActivePromises returns copies of all active, unexpired promises, read
// from the latest committed store snapshot with no lock acquisition.
func (m *shard) ActivePromises() ([]Promise, error) {
	return m.activePromises(m.store.Snapshot())
}

func (m *shard) activePromises(r txn.Reader) ([]Promise, error) {
	now := m.clk.Now()
	var out []Promise
	err := r.Scan(TablePromises, func(_ string, row txn.Row) bool {
		p := row.(*promiseRow).p
		if p.State == Active && now.Before(p.Expires) {
			out = append(out, p)
		}
		return true
	})
	return out, err
}
