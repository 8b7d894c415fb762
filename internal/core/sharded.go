package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/txn"
)

// ShardedManager is a promise manager whose state is striped across N
// independent shards so that throughput grows with cores: each shard owns a
// private transactional store holding its slice of the promise table, the
// escrow ledger and the soft-lock tags, plus the resource pools and
// instances that hash to it (FNV-1a of the pool/instance id).
//
// Concurrency protocol. Every operation computes the set of shards it can
// touch and acquires those shards' mutexes in ascending index order — the
// lock-ordering protocol that makes cross-shard work deadlock-free.
// Requests confined to one shard (the common case) take one lock and run
// the full single-store §8 semantics on that shard. Requests spanning
// shards hold the whole ordered lock set for their duration, so concurrent
// clients can never observe a cross-shard grant or release half-applied.
//
// Cross-shard promise requests run a two-phase reserve → confirm/abort
// pipeline (see reserve.go): every involved shard opens a Reservation that
// tentatively applies its releases and grants its slice of the predicates
// inside an open transaction; the coordinator then confirms all
// reservations or aborts them all, so the client sees one atomic grant or
// rejection and a released promise springs back untouched when the grant
// fails elsewhere. Because releases apply before planning, §4
// release-with-grant upgrades keep their semantics across shards, and
// property-view predicates are placed by a single global bipartite match
// over every shard's candidates (globalmatch.go) — the ShardedManager
// accepts exactly the requests the single-store Manager accepts, for any
// shard count. The granted whole is a composite promise ("shp-<n>")
// tracked in a directory mapping it to its per-shard parts; clients use
// composite ids exactly like ordinary ones.
//
// Actions run on a single shard and see only that shard's resources.
// Requests whose action touches resources should set Request.Resources so
// the action is routed to the owning shard; otherwise it runs on the
// lowest-indexed involved shard.
//
// Suppliers are passed through to every shard for delegation (§5). A
// supplier must not route back into the same ShardedManager, or it will
// deadlock on the shard locks it already holds.
type ShardedManager struct {
	shards []*managerShard
	clk    clock.Clock
	mode   PropertyMode

	// ns is the node-id namespace prefix stamped onto every promise id
	// this manager issues ("n0!" for node n0, "" when not federated), so
	// ids stay globally unique across a cluster and route back to their
	// issuing node the same way the shard prefix routes them back to
	// their shard. See ShardedConfig.IDNamespace.
	ns string

	// bus is the event bus shared by every shard: per-shard lifecycle
	// streams merge into one totally ordered sequence, so Watch spans the
	// whole engine and events keep their promise id across a cross-shard
	// slot migration.
	bus *EventBus

	// compIDs names composite promises; their parts live in the dir
	// directory. moved tracks property sub-promises re-homed by the global
	// matcher: promise id -> owning shard (int), overriding the id-prefix
	// route. partOf maps sub-promise ids to their composite so a migration
	// can update the composite's part table without scanning the
	// directory. Entries are never removed (ids are client-visible
	// forever). Directory composites are immutable: a migration replaces
	// the entry, so readers holding the old pointer see a consistent — if
	// stale — part list and retry off the not-found they run into.
	//
	// dir and moved are sync.Maps so the read paths (CheckBatch routing,
	// composite walks) resolve them without acquiring any mutex; dirMu
	// guards only partOf, which is touched exclusively by writers.
	compIDs *ids.Generator
	dirMu   sync.Mutex
	dir     sync.Map // composite id -> *composite
	moved   sync.Map // promise id -> int shard
	partOf  map[string]string

	// migSeq is a seqlock over slot migrations: odd while a pipeline is
	// between its first migrating commit and the directory update, bumped
	// to even by commitMoves. Lock-free readers that miss an id use it to
	// tell a genuine not-found (no migration in flight or completed around
	// the read — the answer is definitive) from a possible race with a
	// migration (retry, then freeze under the full lock set).
	migSeq atomic.Uint64

	// fedMu guards the open federated sessions (fed.go): reservations
	// held on behalf of a remote cluster coordinator, keyed by session id.
	fedMu       sync.Mutex
	fedSessions map[string]*fedSession
	fedIDs      *ids.Generator

	// disablePrefilter turns the candidate-index pre-filter off for both
	// routing (the lock set) and reservations, so tests can pin
	// pre-filtered ≡ all-shards equivalence.
	disablePrefilter bool

	// imbalance retains the shard-imbalance gauge computed by Stats;
	// prefilterSkipped counts shards the pre-filter kept out of
	// cross-shard property reservations.
	imbalance        metrics.Gauge
	prefilterSkipped metrics.Counter

	// busPersist mirrors the shared bus (events and composite-directory
	// records) into the data directory's bus log; durable owns the
	// checkpoint/recovery runtime. Both nil on a non-durable engine.
	busPersist *persistLog
	durable    *durableEngine
	// health is the shared degraded-mode latch (nil on a non-durable
	// engine, which cannot degrade).
	health *engineHealth
}

// managerShard pairs one single-store Manager with the mutex that the
// lock-ordering protocol acquires on its behalf. Mutating operations (and
// the reserve/confirm pipeline, which requires sole use of the shard's
// store) take the write lock; read-only operations (CheckBatch,
// PromiseInfo, ActivePromises, listings) share the read lock, so reads
// never queue behind each other — the first concrete step of the lock-free
// read path.
type managerShard struct {
	mu sync.RWMutex
	m  *Manager
}

// composite records how a cross-shard promise decomposes into per-shard
// sub-promises. Entries are never removed once the id has been handed to a
// client — like the single-store done tables, they are what keeps a
// released or expired composite answering with the precise
// promise-released / promise-expired sentinels instead of not-found.
type composite struct {
	client  string
	expires time.Time
	parts   []compositePart
}

// compositePart is one shard's slice of a composite promise. predIdx maps
// the sub-promise's predicates back to their positions in the original
// request, so PromiseInfo can reconstruct the promise in client order.
type compositePart struct {
	shard   int
	id      string
	predIdx []int
	expires time.Time
}

// shardIDPrefix prefixes per-shard promise ids: shard i issues "prm<i>-<n>",
// which is how promise ids route back to their owning shard.
const shardIDPrefix = "prm"

// compositeIDPrefix prefixes directory-tracked composite promise ids.
const compositeIDPrefix = "shp-"

// errPrefilterWiden is the internal signal that the candidate-index
// pre-filter, re-read under the held shard locks, named a contributing
// shard whose lock is not held — an index flap on an unlocked shard (or a
// named predicate deferred by an earlier grant in the same message whose
// displaced slot may re-home beyond the held set). The request cannot be
// soundly rejected over the clamped view, so the caller releases its
// locks and retries under the full set, where the signal cannot recur.
// Never client-visible.
var errPrefilterWiden = errors.New("core: pre-filter names a shard outside the held lock set")

// migrationRetryLimit bounds the optimistic retries the read paths
// (CheckBatch, checkComposite, compositeInfo) make when a racing slot
// migration re-homes a promise between routing and the shard lock; past
// the limit they freeze migrations by taking every shard lock and resolve
// definitively.
const migrationRetryLimit = 4

// ShardedConfig configures a ShardedManager. The embedded Config applies
// to every shard, which share one clock and supplier map. Store, Resources
// and IDPrefix must stay zero: each shard owns a fresh store and issues
// ids under its own prefix.
type ShardedConfig struct {
	Config
	// Shards is the number of state stripes. Zero means 8.
	Shards int
	// IDNamespace, when non-empty, prefixes every promise id with
	// "<namespace>!" — the cluster layer sets it to the node id so ids
	// issued by different nodes never collide and self-describe their
	// issuing node. It must not contain '!' and must stay stable across
	// restarts of a durable node (the id prefix is how recovered ids
	// route). Empty (the default) issues classic un-namespaced ids.
	IDNamespace string
}

// NewSharded creates a ShardedManager with cfg.Shards independent shards.
func NewSharded(cfg ShardedConfig) (*ShardedManager, error) {
	if cfg.Store != nil || cfg.Resources != nil || cfg.IDPrefix != "" {
		return nil, fmt.Errorf("%w: a sharded engine builds its own stores and id prefixes; leave Store, Resources and IDPrefix unset", ErrBadRequest)
	}
	n := cfg.Shards
	if n <= 0 {
		n = 8
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	ns := ""
	if cfg.IDNamespace != "" {
		if strings.ContainsAny(cfg.IDNamespace, "!+ \t\n") {
			return nil, fmt.Errorf("%w: id namespace %q may not contain '!', '+' or whitespace", ErrBadRequest, cfg.IDNamespace)
		}
		ns = cfg.IDNamespace + "!"
	}
	s := &ShardedManager{
		clk:     cfg.Clock,
		mode:    cfg.PropertyMode,
		ns:      ns,
		bus:     NewEventBusCap(cfg.ReplayRing),
		compIDs: ids.New(ns + "shp"),
		partOf:  make(map[string]string),
	}
	for i := 0; i < n; i++ {
		sh := &managerShard{}
		shardCfg := cfg.Config
		shardCfg.IDPrefix = fmt.Sprintf("%s%s%d", ns, shardIDPrefix, i)
		shardCfg.bus = s.bus
		// Composite members never join a shard-local victim set: a
		// composite promise is displaced whole or not at all, and only the
		// coordinator sees the whole. dirMu is a leaf lock, safe to take
		// under any shard lock.
		shardCfg.preemptFilter = func(id string) bool {
			s.dirMu.Lock()
			_, part := s.partOf[id]
			s.dirMu.Unlock()
			return !part
		}
		// Deadline-driven expiry mutates the shard's store, so it runs under
		// the shard's write lock like any other mutation — the
		// reserve/confirm pipeline's sole-user invariant holds.
		shardCfg.gate = func(run func()) {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			run()
		}
		m, err := New(shardCfg)
		if err != nil {
			return nil, err
		}
		sh.m = m
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// Watch subscribes to lifecycle events across every shard, merged into one
// totally ordered stream; see promises.Engine.
func (s *ShardedManager) Watch(ctx context.Context, opts WatchOptions) (<-chan Event, error) {
	return s.bus.Watch(ctx, opts)
}

// NumShards returns the shard count.
func (s *ShardedManager) NumShards() int { return len(s.shards) }

// ShardOf returns the shard index owning the pool or instance with the
// given id — exposed so tools and tests can place resources deliberately.
func (s *ShardedManager) ShardOf(resourceID string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(resourceID))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// ownerShard maps a promise id back to its shard: the moved directory for
// migrated property sub-promises, the "<ns>prm<i>-" prefix otherwise. ok
// is false for composite ids and ids this manager never issued — a
// federated id from another node's namespace resolves only through the
// moved directory (a slot migrated in keeps its original id). Lock-free:
// this sits on the hot path of every check.
func (s *ShardedManager) ownerShard(id string) (int, bool) {
	if sh, migrated := s.moved.Load(id); migrated {
		return sh.(int), true
	}
	id, ok := strings.CutPrefix(id, s.ns)
	if !ok || !strings.HasPrefix(id, shardIDPrefix) {
		return 0, false
	}
	rest := id[len(shardIDPrefix):]
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 {
		return 0, false
	}
	n, err := strconv.Atoi(rest[:dash])
	if err != nil || n < 0 || n >= len(s.shards) {
		return 0, false
	}
	return n, true
}

// isCompositeID recognizes directory-tracked composite ids, including
// node-namespaced ones ("n0!shp-3"): everything through a '!' is a
// namespace, what remains must carry the composite prefix.
func isCompositeID(id string) bool {
	if i := strings.IndexByte(id, '!'); i >= 0 {
		id = id[i+1:]
	}
	return strings.HasPrefix(id, compositeIDPrefix)
}

// lookupComposite returns the directory entry for id, or nil when missing
// or owned by a different client (pass client "" to skip the owner check).
// Lock-free: entries are immutable once stored.
func (s *ShardedManager) lookupComposite(client, id string) *composite {
	v, ok := s.dir.Load(id)
	if !ok {
		return nil
	}
	c := v.(*composite)
	if client != "" && c.client != client {
		return nil
	}
	return c
}

func (s *ShardedManager) dropComposite(id string) {
	if v, ok := s.dir.Load(id); ok {
		s.dirMu.Lock()
		for _, part := range v.(*composite).parts {
			delete(s.partOf, part.id)
		}
		s.dirMu.Unlock()
	}
	s.dir.Delete(id)
	s.logDirDrop(id)
}

// lockShards acquires the mutexes of the given shard set in ascending index
// order and returns the matching unlock. Ascending acquisition is the whole
// deadlock-avoidance story: two cross-shard requests can never hold locks
// in an order that closes a cycle.
func (s *ShardedManager) lockShards(set map[int]bool) (unlock func()) {
	idxs := make([]int, 0, len(set))
	for i := range set {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		s.shards[i].mu.Lock()
	}
	return func() {
		for j := len(idxs) - 1; j >= 0; j-- {
			s.shards[idxs[j]].mu.Unlock()
		}
	}
}

// addPromiseID adds the shards backing a referenced promise id to set.
// Composite ids mark the route non-simple; unknown ids land on shard 0,
// where lookup produces the correct not-found error.
func (s *ShardedManager) addPromiseID(set map[int]bool, id string, simple *bool) {
	if isCompositeID(id) {
		*simple = false
		if c := s.lookupComposite("", id); c != nil {
			for _, part := range c.parts {
				set[part.shard] = true
			}
			return
		}
		set[0] = true
		return
	}
	if sh, ok := s.ownerShard(id); ok {
		set[sh] = true
		return
	}
	set[0] = true
}

// routeRequest computes the shard set one promise request can touch.
// simple means the whole request (predicates and releases) lives on one
// shard with no composite references, so the single-store path can run it
// with full §4/§8 semantics.
//
// A property predicate's satisfying instance may live anywhere, but
// "anywhere" is bounded by the published candidate indexes: only the
// shards the pre-filter says could contribute a slot, a candidate or a
// migration target join the route (contributingShards). The summaries are
// read lock-free here, so the answer is a hint, not a commitment — the
// caller's re-route-under-locks loop and grantCross's under-lock
// re-validation (errPrefilterWiden) are what make it sound; see the
// Phase 1 comment in grantCross for the equivalence argument.
func (s *ShardedManager) routeRequest(pr PromiseRequest) (set map[int]bool, simple bool) {
	set = make(map[int]bool)
	simple = true
	var props []floatPred
	for i, p := range pr.Predicates {
		switch p.View {
		case AnonymousView:
			set[s.ShardOf(p.Pool)] = true
		case NamedView:
			set[s.ShardOf(p.Instance)] = true
		case PropertyView:
			props = append(props, floatPred{idx: i})
		}
	}
	if len(props) > 0 {
		for i := range s.contributingShards(pr, props) {
			set[i] = true
		}
		if len(s.shards) > 1 {
			// Property placement always runs the reservation pipeline on a
			// multi-shard engine — grantCross owns the pre-filter counters,
			// the flap re-validation and the global match — even when the
			// pre-filter narrows the route to a single shard.
			simple = false
		}
	}
	for _, rid := range pr.Releases {
		s.addPromiseID(set, rid, &simple)
	}
	if len(set) == 0 {
		set[0] = true
	}
	if len(set) > 1 {
		simple = false
	}
	return set, simple
}

// route computes the shard set for a whole request, whether the
// single-shard fast path applies, and the primary shard an action should
// run on.
func (s *ShardedManager) route(req Request) (involved map[int]bool, simple bool, primary int) {
	involved = make(map[int]bool)
	simple = true
	for _, pr := range req.PromiseRequests {
		set, sub := s.routeRequest(pr)
		if !sub {
			simple = false
		}
		for i := range set {
			involved[i] = true
		}
	}
	for _, e := range req.Env {
		s.addPromiseID(involved, e.PromiseID, &simple)
	}
	for _, r := range req.Resources {
		involved[s.ShardOf(r)] = true
	}
	// A multi-request message with a property predicate takes every lock:
	// its later requests commit after earlier ones, and a pre-filter widen
	// (errPrefilterWiden) fired mid-message could not be retried — the
	// compensation path hands back grants but cannot restore committed §4
	// releases. Single-request messages, the common and perf-critical
	// shape, keep the shrunken set: their widen fires before any state
	// changes, so the retry is a pure re-execution.
	if len(s.shards) > 1 && len(req.PromiseRequests) > 1 && hasPropertyPred(req.PromiseRequests) {
		for i := range s.shards {
			involved[i] = true
		}
	}
	if len(involved) == 0 {
		involved[0] = true
	}
	if len(involved) > 1 {
		simple = false
	}
	if len(req.Resources) > 0 {
		primary = s.ShardOf(req.Resources[0])
	} else {
		primary = len(s.shards)
		for i := range involved {
			if i < primary {
				primary = i
			}
		}
	}
	return involved, simple, primary
}

// hasPropertyPred reports whether any request carries a property-view
// predicate — the only kind that can trigger a pre-filter widen.
func hasPropertyPred(reqs []PromiseRequest) bool {
	for _, pr := range reqs {
		for _, p := range pr.Predicates {
			if p.View == PropertyView {
				return true
			}
		}
	}
	return false
}

// subsetOf reports whether every shard in a is also in b.
func subsetOf(a, b map[int]bool) bool {
	for i := range a {
		if !b[i] {
			return false
		}
	}
	return true
}

// allShards returns the full shard set.
func (s *ShardedManager) allShards() map[int]bool {
	out := make(map[int]bool, len(s.shards))
	for i := range s.shards {
		out[i] = true
	}
	return out
}

// needsGlobal reports whether a named predicate in the request targets an
// instance tentatively allocated to a property promise. Granting it means
// displacing that allocation — a joint matching problem over every shard,
// possibly migrating the displaced slot — so the request escalates to the
// cross-shard pipeline under the full lock set. First-fit mode never
// rearranges, so it never escalates (the owning shard rejects exactly as
// the single store would). The caller must hold the lock of every shard
// the request routes to; named instances' shards always are in the route.
func (s *ShardedManager) needsGlobal(req Request) (bool, error) {
	if s.mode == FirstFitMode {
		return false, nil
	}
	for _, pr := range req.PromiseRequests {
		held, err := s.promiseRequestNeedsGlobal(pr)
		if err != nil || held {
			return held, err
		}
	}
	return false, nil
}

// promiseRequestNeedsGlobal is needsGlobal for one promise request.
func (s *ShardedManager) promiseRequestNeedsGlobal(pr PromiseRequest) (bool, error) {
	for _, p := range pr.Predicates {
		if p.View != NamedView {
			continue
		}
		held, err := s.shards[s.ShardOf(p.Instance)].m.propertySlotHolder(p.Instance)
		if err != nil || held {
			return held, err
		}
	}
	return false, nil
}

// Execute processes one client message, exactly like Manager.Execute but
// with state striped across shards. Single-shard requests delegate to the
// owning shard's manager; cross-shard requests run the composite protocol
// under the ordered lock set.
//
// Routing resolves composite ids and migrated promises against the
// directory lock-free, so the request is re-routed after the locks are
// held: a composite registered (or a slot migrated) in between could
// otherwise send execution to shards whose mutexes were never acquired.
// The loop converges because the lock set only grows. A second check under
// the locks escalates to the full set when a named predicate needs the
// global matcher (needsGlobal above).
//
// Cancellation is honoured before any lock is taken and, for cross-shard
// requests, between per-shard reservations (see grantCross) — a dead client
// aborts the whole pipeline before anything is confirmed, leaking no state.
func (s *ShardedManager) Execute(ctx context.Context, req Request) (*Response, error) {
	if req.Client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	// Degraded read-only mode rejects mutations before any routing or
	// locking; the shard managers gate their own entry points too, but
	// cross-shard paths bypass Manager.Execute.
	if err := s.health.reject(); err != nil {
		return nil, err
	}
	// A named action's resource params route it to its owning shard, the
	// same normalisation the transport server applies for wire actions.
	if req.ActionName != "" && len(req.Resources) == 0 {
		for _, key := range []string{"pool", "instance"} {
			if r := req.ActionParams[key]; r != "" {
				req.Resources = append(req.Resources, r)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	involved, _, _ := s.route(req)
	for {
		unlock := s.lockShards(involved)
		again, simple, primary := s.route(req)
		if subsetOf(again, involved) {
			esc, err := s.needsGlobal(req)
			if err != nil {
				unlock()
				return nil, err
			}
			if !esc || len(involved) == len(s.shards) {
				if simple && !esc {
					defer unlock()
					return s.shards[primary].m.Execute(ctx, req)
				}
				resp, err := s.executeCross(ctx, req, primary, involved)
				unlock()
				if errors.Is(err, errPrefilterWiden) {
					// The pre-filter flapped on a shard outside the held
					// set; retry under every lock, where the widen signal
					// cannot fire again (see grantCross Phase 1).
					involved = s.allShards()
					continue
				}
				return resp, err
			}
			again = s.allShards()
		}
		unlock()
		for i := range again {
			involved[i] = true
		}
	}
}

// executeCross runs a cross-shard request. Caller holds the locks of
// exactly the shards in locked, which cover every shard the request can
// touch. An errPrefilterWiden from grantCross propagates to the caller
// (with earlier grants in the message compensated like any other
// failure) so the whole message retries under the full lock set.
func (s *ShardedManager) executeCross(ctx context.Context, req Request, primary int, locked map[int]bool) (*Response, error) {
	resp := &Response{}
	for _, pr := range req.PromiseRequests {
		presp, err := s.grantCross(ctx, req.Client, pr, locked)
		if err != nil {
			// Restore the single-store all-or-nothing contract for the
			// message: grants already committed for earlier promise
			// requests are handed back before the error surfaces.
			for _, prev := range resp.Promises {
				s.releaseGrant(req.Client, prev)
			}
			return nil, err
		}
		resp.Promises = append(resp.Promises, presp)
	}

	groups, envErr := s.splitEnv(req.Client, req.Env)
	if envErr == nil {
		envErr = s.validateEnvGroups(req.Client, groups)
	}
	switch {
	// A named action is resolved by the primary shard's manager, so it
	// counts as an action here even though req.Action is still nil.
	case req.Action != nil || req.ActionName != "":
		if envErr != nil {
			resp.ActionErr = envErr
			break
		}
		// The action and the primary shard's releases run as one §8
		// transaction on the primary; the other shards' releases apply
		// afterwards, invisible to concurrent clients because the full
		// lock set is held throughout.
		sub, err := s.shards[primary].m.Execute(ctx, Request{
			Client:       req.Client,
			Env:          groups[primary],
			Action:       req.Action,
			ActionName:   req.ActionName,
			ActionParams: req.ActionParams,
		})
		if err != nil {
			for _, prev := range resp.Promises {
				s.releaseGrant(req.Client, prev)
			}
			return nil, err
		}
		resp.ActionResult, resp.ActionErr = sub.ActionResult, sub.ActionErr
		if resp.ActionErr == nil {
			s.applyReleaseGroups(req.Client, groups, primary)
		}
	case len(req.Env) > 0:
		if envErr != nil {
			resp.ActionErr = envErr
			break
		}
		s.applyReleaseGroups(req.Client, groups, -1)
	}
	return resp, nil
}

// releaseGrant hands back a just-granted promise (single-shard or
// composite) when a later internal failure in the same message forces the
// whole message to fail: the client never learns the promise id, so the
// grant must not outlive the call. Compensation ignores the request's
// context — it must run even (especially) when the client is gone.
func (s *ShardedManager) releaseGrant(client string, pr PromiseResponse) {
	if !pr.Accepted {
		return
	}
	if isCompositeID(pr.PromiseID) {
		if c := s.lookupComposite(client, pr.PromiseID); c != nil {
			for _, part := range c.parts {
				_, _ = s.shards[part.shard].m.Execute(context.Background(), Request{
					Client: client,
					Env:    []EnvEntry{{PromiseID: part.id, Release: true}},
				})
			}
			s.dropComposite(pr.PromiseID)
		}
		return
	}
	if sh, ok := s.ownerShard(pr.PromiseID); ok {
		_, _ = s.shards[sh].m.Execute(context.Background(), Request{
			Client: client,
			Env:    []EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
		})
	}
}

// splitEnv decomposes an environment into per-shard environments, expanding
// composite promises into their parts. The error mirrors validateEnv's
// client-visible sentinels.
func (s *ShardedManager) splitEnv(client string, env []EnvEntry) (map[int][]EnvEntry, error) {
	groups := make(map[int][]EnvEntry)
	for _, e := range env {
		if isCompositeID(e.PromiseID) {
			c := s.lookupComposite(client, e.PromiseID)
			if c == nil {
				return nil, fmt.Errorf("%w: %s", ErrPromiseNotFound, e.PromiseID)
			}
			for _, part := range c.parts {
				groups[part.shard] = append(groups[part.shard], EnvEntry{PromiseID: part.id, Release: e.Release})
			}
			continue
		}
		sh, ok := s.ownerShard(e.PromiseID)
		if !ok {
			sh = 0
		}
		groups[sh] = append(groups[sh], e)
	}
	return groups, nil
}

// validateEnvGroups checks every per-shard environment, in shard order.
func (s *ShardedManager) validateEnvGroups(client string, groups map[int][]EnvEntry) error {
	for _, sh := range sortedKeys(groups) {
		if err := s.shards[sh].m.envOK(client, groups[sh]); err != nil {
			return err
		}
	}
	return nil
}

// applyReleaseGroups hands back every release-flagged environment entry,
// shard by shard, skipping skipShard (whose releases already ran inside the
// action transaction). It is best-effort: validation already passed under
// the held locks, so the only failures left are clock expiry (the sweep
// frees those holds anyway) and internal store errors, and neither may
// turn a committed action into a client-visible failure.
func (s *ShardedManager) applyReleaseGroups(client string, groups map[int][]EnvEntry, skipShard int) {
	for _, sh := range sortedKeys(groups) {
		if sh == skipShard {
			continue
		}
		var rel []EnvEntry
		for _, e := range groups[sh] {
			if e.Release {
				rel = append(rel, e)
			}
		}
		if len(rel) == 0 {
			continue
		}
		// Best-effort by contract (see above): never cancelled mid-way.
		_, _ = s.shards[sh].m.Execute(context.Background(), Request{Client: client, Env: rel})
	}
}

// grantCross evaluates one promise request that may span shards, running
// the two-phase reserve → confirm/abort pipeline of reserve.go. Caller
// holds the locks of exactly the shards in locked, which cover every
// shard the request routed to; grantCross never reserves outside that
// set, returning errPrefilterWiden instead when the re-read pre-filter
// says it would have to (see Phase 1).
//
// Cancellation is checked between per-shard reservations and once more
// before the first Confirm: a context that dies mid-pipeline aborts every
// open reservation, so releases spring back into force, tentative grants
// vanish, and upstream promises acquired while planning are compensated —
// no state outlives the cancelled call. Once the first shard has confirmed
// the pipeline runs to completion; cancellation can no longer split the
// grant.
func (s *ShardedManager) grantCross(ctx context.Context, client string, pr PromiseRequest, locked map[int]bool) (PromiseResponse, error) {
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
	// Normalize the tier here (pr is a copy) so the coordinator and every
	// shard agree on it; shard configs share one DefaultPriority.
	if pr.Priority == 0 {
		pr.Priority = s.shards[0].m.cfg.DefaultPriority
	}

	// Partition release targets to their owning shards, expanding composite
	// targets into their per-shard parts. Usability is checked by each
	// shard's Reserve, under its transaction.
	relByShard := make(map[int][]string)
	hasCompositeRel := false
	for _, rid := range pr.Releases {
		if isCompositeID(rid) {
			hasCompositeRel = true
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

	// Resolve the duration cap (manager clamp + context deadline) up front:
	// a request whose floor cannot be met must reject before any shard
	// reserves, even when every predicate floats (shard configs agree, so
	// any shard's answer is the answer). The capped value also prices the
	// pinned grants below, so a floating predicate cannot outlive the
	// caller's deadline either.
	durCapped, durReason := s.shards[0].m.grantDuration(ctx, pr.Duration, pr.MinDuration)
	if durReason != "" {
		s.shards[0].m.metrics.requests.Inc()
		s.shards[0].m.metrics.rejections.Inc()
		return reject("%s", durReason), nil
	}

	// Partition predicates: anonymous and named bind to their resource's
	// shard; property predicates float and are placed by the global match.
	// A named predicate whose instance is tentatively allocated to a
	// property promise is deferred into the global match too: granting it
	// displaces that allocation, and the displaced slot may need to land
	// on any shard (first-fit never displaces, so it never defers — the
	// owning shard's planner rejects exactly as the single store would).
	fixed := make(map[int][]int)
	var floating []floatPred
	for i, p := range pr.Predicates {
		switch p.View {
		case AnonymousView:
			fixed[s.ShardOf(p.Pool)] = append(fixed[s.ShardOf(p.Pool)], i)
		case NamedView:
			if s.mode == MatchingMode {
				// Deliberately re-peeked here even though needsGlobal
				// already asked: an earlier promise request in the same
				// message can have granted a property promise onto this
				// instance, so the deferral answer must be re-read per
				// request. The displaced slot may need to re-home on a
				// shard the route never locked; the deferred predicate
				// joins floating, so Phase 1's clamp check below catches
				// that case and widens rather than plan past the held set.
				held, err := s.shards[s.ShardOf(p.Instance)].m.propertySlotHolder(p.Instance)
				if err != nil {
					return PromiseResponse{}, err
				}
				if held {
					floating = append(floating, floatPred{idx: i, named: true})
					continue
				}
			}
			fixed[s.ShardOf(p.Instance)] = append(fixed[s.ShardOf(p.Instance)], i)
		case PropertyView:
			floating = append(floating, floatPred{idx: i})
		}
	}

	// Same-shard request: when every predicate and every release target
	// lives on one shard (and no release is composite, which the inner
	// manager cannot resolve), delegate wholesale so the common case stays
	// one ordinary sub-promise with no reservation or directory overhead.
	if len(floating) == 0 && len(fixed) == 1 && !hasCompositeRel {
		for sh := range fixed {
			sameShard := true
			for rsh := range relByShard {
				if rsh != sh {
					sameShard = false
				}
			}
			if !sameShard {
				break
			}
			resp, err := s.shards[sh].m.Execute(ctx, Request{Client: client, PromiseRequests: []PromiseRequest{pr}})
			if err != nil {
				return PromiseResponse{}, err
			}
			return resp.Promises[0], nil
		}
	}

	// Phase 1 — reserve. Every involved shard tentatively applies its
	// releases and grants its fixed predicates inside an open transaction.
	// With floating predicates, the candidate-index pre-filter decides
	// which shards join: only those whose published index says they could
	// contribute a slot, a candidate instance or a migration target (see
	// contributingShards — shards with nothing to offer are provably
	// irrelevant to the joint match and their reservations are skipped).
	//
	// Since the route itself is pre-filtered, the held lock set no longer
	// covers every shard, and summaries of unlocked shards can move while
	// this runs — the index flap PR 5's all-shards route made impossible.
	// Equivalence with the single store survives the flap because of how
	// the two outcomes linearize:
	//
	//   - Accepts are self-justifying: the match is solved over candidate
	//     state read transactionally on reserved (locked) shards, and the
	//     plan is applied and confirmed under those same locks. Extra
	//     capacity appearing elsewhere can only keep a feasible request
	//     feasible, so no flap invalidates an accept.
	//   - Rejects linearize at the instant this re-read of the pre-filter
	//     loads the unlocked shards' summaries. Locked shards are frozen
	//     from acquisition through commit, so their state "now" is their
	//     state at that instant; each unlocked shard's summary is its
	//     committed state at its atomic load (commit hooks publish before
	//     the shard lock releases). Together they form one consistent
	//     global state in which every excluded shard provably contributes
	//     nothing — the exact state a single store would have rejected.
	//     A shard that becomes useful afterwards serializes the request
	//     before that commit.
	//
	// The one case with no such instant is a shard the re-read names as
	// contributing whose lock the route-time hint never took: it cannot
	// be reserved (no lock), and excluding it would reject against a view
	// no global state matches. That is the widen signal — the caller
	// retries under the full lock set, where the clamp is vacuous.
	involved := make(map[int]bool)
	for sh := range relByShard {
		involved[sh] = true
	}
	for sh := range fixed {
		involved[sh] = true
	}
	if len(floating) > 0 {
		for i := range s.contributingShards(pr, floating) {
			if !locked[i] {
				return PromiseResponse{}, errPrefilterWiden
			}
			involved[i] = true
		}
		if len(involved) == 0 {
			// No shard can contribute and nothing is fixed or released:
			// reserve one (held) shard anyway so the rejection runs through
			// the same counters and response shape as always.
			involved[sortedKeys(locked)[0]] = true
		}
		if skipped := len(s.shards) - len(involved); skipped > 0 {
			s.prefilterSkipped.Add(int64(skipped))
		}
	}
	resvs := make(map[int]*Reservation)
	abortAll := func() {
		for _, sh := range sortedKeys(resvs) {
			resvs[sh].Abort()
		}
	}
	for _, sh := range sortedKeys(involved) {
		// The cancellation point of the pipeline: a context that died while
		// earlier shards reserved aborts everything before any Confirm.
		if err := ctx.Err(); err != nil {
			abortAll()
			return PromiseResponse{}, err
		}
		idxs := fixed[sh]
		preds := make([]Predicate, len(idxs))
		for j, idx := range idxs {
			preds[j] = pr.Predicates[idx]
		}
		resv, rejResp, err := s.shards[sh].m.Reserve(ctx, client, ReserveRequest{
			Releases:    relByShard[sh],
			Predicates:  preds,
			PredIdx:     idxs,
			Duration:    pr.Duration,
			MinDuration: pr.MinDuration,
			Priority:    pr.Priority,
			Preemptible: pr.Preemptible,
		})
		if err != nil {
			abortAll()
			return PromiseResponse{}, err
		}
		if rejResp != nil {
			// One shard's rejection aborts the whole pipeline: releases
			// spring back into force on every shard (§4).
			abortAll()
			out := *rejResp
			out.Correlation = pr.RequestID
			return out, nil
		}
		resvs[sh] = resv
	}

	// Phase 2 — global property match. The coordinator solves one joint
	// bipartite problem over every shard's candidates and applies the
	// solution through the open reservations, releases strictly before
	// acquisitions: migrating slots detach first, within-shard
	// reallocations run per shard, migrating slots re-attach on their new
	// shard, then the new predicates pin to their chosen instances — each
	// as a single-predicate sub-promise, so the slot stays migratable.
	var pendingMoves []slotMigration
	var movedRows []*Promise
	preempted := false
	if len(floating) > 0 {
		plans, migs, ok, err := s.solveFloatAssignment(resvs, pr, floating, s.mode)
		if err != nil {
			abortAll()
			return PromiseResponse{}, err
		}
		if !ok && pr.Priority > 0 && s.mode == MatchingMode {
			// Spot-capacity fallback (preempt.go): displacing lower-tier
			// preemptible holds may restore joint feasibility. The victims
			// that help can hold instances on any shard — including shards
			// the pre-filter excluded, whose named-held instances become
			// candidates once freed — so the fallback runs only under the
			// full lock set (widen first otherwise; the retry is a pure
			// re-execution, as in Phase 1) and reserves the leftover shards.
			if len(locked) < len(s.shards) {
				abortAll()
				return PromiseResponse{}, errPrefilterWiden
			}
			for i := range s.shards {
				if resvs[i] != nil {
					continue
				}
				resv, rejResp, rerr := s.shards[i].m.Reserve(ctx, client, ReserveRequest{
					Duration:    pr.Duration,
					MinDuration: pr.MinDuration,
					Priority:    pr.Priority,
					Preemptible: pr.Preemptible,
				})
				if rerr != nil {
					abortAll()
					return PromiseResponse{}, rerr
				}
				if rejResp != nil {
					// An empty reservation cannot reject on capacity; this is
					// a duration-floor rejection, identical on every shard.
					abortAll()
					out := *rejResp
					out.Correlation = pr.RequestID
					return out, nil
				}
				resvs[i] = resv
			}
			plans, migs, ok, err = s.preemptFloat(pr, resvs, floating)
			if err != nil {
				abortAll()
				return PromiseResponse{}, err
			}
			preempted = ok
		}
		if !ok {
			abortAll()
			// Abort counted the per-shard requests; the client-visible
			// rejection lands on the lowest involved shard's counter.
			s.shards[sortedKeys(resvs)[0]].m.metrics.rejections.Inc()
			return reject("property predicates not jointly satisfiable with outstanding promises"), nil
		}
		migRows := make([]*Promise, len(migs))
		for i, mg := range migs {
			if migRows[i], err = resvs[mg.from].MigrateOut(mg.promiseID); err != nil {
				abortAll()
				return PromiseResponse{}, err
			}
		}
		for _, sh := range sortedKeys(plans) {
			if p := plans[sh]; len(p.realloc) > 0 {
				if err := resvs[sh].ApplyRealloc(p.realloc); err != nil {
					abortAll()
					return PromiseResponse{}, err
				}
			}
		}
		for i, mg := range migs {
			if err := resvs[mg.to].MigrateIn(migRows[i], mg.inst); err != nil {
				abortAll()
				return PromiseResponse{}, err
			}
		}
		for _, sh := range sortedKeys(plans) {
			p := plans[sh]
			for j := range p.preds {
				if err := resvs[sh].GrantPinned(p.preds[j:j+1], p.predIdx[j:j+1], p.assign[j:j+1], durCapped); err != nil {
					abortAll()
					return PromiseResponse{}, err
				}
			}
		}
		if preempted {
			// Name the displacing promise in every pending EventPreempted:
			// the lowest granted part id (the composite id does not exist
			// until after confirm, and a single-part grant answers to its
			// part id anyway).
			by := ""
			for _, sh := range sortedKeys(resvs) {
				if g := resvs[sh].Granted(); len(g) > 0 {
					by = g[0].ID
					break
				}
			}
			for _, sh := range sortedKeys(resvs) {
				resvs[sh].StampPreemptedBy(by)
			}
		}
		pendingMoves = migs
		movedRows = migRows
	}

	// Phase 3 — confirm, in ascending shard order. Commit of an open
	// reservation cannot conflict (the shard lock is held), so a failure
	// here is an internal invariant break; grants already confirmed are
	// handed back best-effort so no promise the client never learned about
	// outlives the call. The last cancellation check sits before the first
	// Confirm: past it the grant is committed whole.
	if err := ctx.Err(); err != nil {
		abortAll()
		return PromiseResponse{}, err
	}
	// With migrations pending, the confirms below make a promise vanish
	// from its source shard's snapshot before the directory re-routes it;
	// the odd seqlock value tells lock-free readers their miss may be this
	// race rather than a definitive not-found.
	migrating := len(pendingMoves) > 0
	if migrating {
		s.migSeq.Add(1)
	}
	var confirmed []compositePart
	for _, sh := range sortedKeys(resvs) {
		granted := resvs[sh].Granted()
		if err := resvs[sh].Confirm(); err != nil {
			if migrating {
				s.migSeq.Add(1)
			}
			abortAll()
			s.releaseParts(client, confirmed)
			return PromiseResponse{}, err
		}
		for _, g := range granted {
			confirmed = append(confirmed, compositePart{shard: sh, id: g.ID, predIdx: g.PredIdx, expires: g.Expires})
		}
	}
	s.commitMoves(pendingMoves)
	if migrating {
		s.migSeq.Add(1)
	}
	if len(pendingMoves) > 0 {
		// The migrated promises now live (and will expire) on their new
		// shards; their ids, clients and expiries are unchanged, and the
		// shared bus keeps their event streams continuous.
		now := s.clk.Now()
		events := make([]Event, 0, len(pendingMoves))
		for i, mg := range pendingMoves {
			row := movedRows[i]
			s.shards[mg.to].m.trackExpiry(row.ID, row.Expires)
			events = append(events, Event{
				Type: EventMigrated, PromiseID: row.ID, Client: row.Client,
				Time: now, Expires: row.Expires,
				Reason: fmt.Sprintf("slot moved from shard %d to shard %d", mg.from, mg.to),
			})
		}
		s.bus.publish(events...)
	}

	// A pipeline that produced a single sub-promise (e.g. an upgrade whose
	// new predicates all land on one shard while the releases span others)
	// needs no composite id: the part is an ordinary promise.
	if len(confirmed) == 1 {
		if err := s.durSync(); err != nil {
			return PromiseResponse{}, fmt.Errorf("core: commit not durable: %w", err)
		}
		return PromiseResponse{
			Correlation: pr.RequestID,
			Accepted:    true,
			PromiseID:   confirmed[0].id,
			Expires:     confirmed[0].expires,
		}, nil
	}
	id, expires := s.registerComposite(client, confirmed)
	// The directory add, the migration events and every part commit must be
	// on stable storage before the composite id is handed out.
	if err := s.durSync(); err != nil {
		return PromiseResponse{}, fmt.Errorf("core: commit not durable: %w", err)
	}
	return PromiseResponse{
		Correlation: pr.RequestID,
		Accepted:    true,
		PromiseID:   id,
		Expires:     expires,
	}, nil
}

// contributingShards is the reservation (and, since the lock-set shrink,
// routing) pre-filter: given a request's floating predicates, it returns
// the set of shards that could contribute anything to the joint property
// match, read lock-free from each shard's published candidate-index
// summary (candidates.go). Summaries of shards whose lock the caller
// holds cannot move underneath the decision; the rest can. routeRequest
// therefore treats the answer as a hint, and grantCross re-reads it under
// the held locks, clamping to the lock set and widening on a flap — the
// Phase 1 comment there carries the equivalence argument.
//
// Two sound pruning tiers, both strictly conservative:
//
//  1. A shard with no active property slot and no hostable instance adds
//     no vertex to the bipartite problem at all — not a slot to rearrange,
//     not a candidate to host a new predicate or a migrated slot — so
//     excluding it can never change feasibility. (Release and fixed-
//     predicate shards are reserved by the caller regardless, which is
//     what keeps capacity freed by §4 releases visible to the match.)
//  2. When no shard holds any property slot, no rearrangement or
//     migration is possible: the match degenerates to placing the new
//     predicates on available instances. A slotless shard is then needed
//     only if one of its hostable instances might satisfy one of the new
//     predicates, which the per-value property index answers
//     conservatively (indexMay); unindexable predicate shapes report
//     "may", falling back to inclusion.
//
// Everything else — skew in instance placement being the headline case —
// shrinks the reservation set to the shards that matter.
func (s *ShardedManager) contributingShards(pr PromiseRequest, floating []floatPred) map[int]bool {
	out := make(map[int]bool, len(s.shards))
	if s.disablePrefilter {
		for i := range s.shards {
			out[i] = true
		}
		return out
	}
	summaries := make([]*candSummary, len(s.shards))
	totalSlots := 0
	for i, sh := range s.shards {
		summaries[i] = sh.m.cand.summary.Load()
		totalSlots += summaries[i].Slots
	}
	// Tier 2 applies only with zero slots anywhere; a deferred named
	// predicate implies a property slot exists, so with totalSlots == 0
	// every floating predicate is a property expression.
	valuePrune := totalSlots == 0
	var exprs []predicate.Expr
	if valuePrune {
		for _, f := range floating {
			if f.named {
				valuePrune = false
				break
			}
			exprs = append(exprs, pr.Predicates[f.idx].Expr)
		}
	}
	now := s.clk.Now()
	for i := range s.shards {
		sum := summaries[i]
		// A summary with pinned instances past their holder's deadline
		// under-counts: the reservation-time sweep would free them, so a
		// cannot-contribute verdict is no longer trustworthy and the
		// shard is included (the commit that lapses the holder restores
		// precision).
		stale := sum.Pinned > 0 && !now.Before(sum.MinPinnedExpiry)
		if sum.Slots == 0 && sum.Hostable == 0 && !stale {
			continue // tier 1: nothing to offer
		}
		if valuePrune && sum.Slots == 0 && !stale {
			may := false
			for _, e := range exprs {
				if m, ok := indexMay(e, sum.ByProp); !ok || m {
					may = true
					break
				}
			}
			if !may {
				continue // tier 2: no hostable instance can satisfy anything requested
			}
		}
		out[i] = true
	}
	return out
}

// releaseParts hands back sub-promises granted earlier in an operation
// that is now failing, in reverse grant order.
func (s *ShardedManager) releaseParts(client string, parts []compositePart) {
	for i := len(parts) - 1; i >= 0; i-- {
		_, _ = s.shards[parts[i].shard].m.Execute(context.Background(), Request{
			Client: client,
			Env:    []EnvEntry{{PromiseID: parts[i].id, Release: true}},
		})
	}
}

// registerComposite records a granted composite promise and returns its id
// and expiry (the earliest part expiry: the whole is only guaranteed while
// every part holds).
func (s *ShardedManager) registerComposite(client string, parts []compositePart) (string, time.Time) {
	expires := parts[0].expires
	for _, part := range parts[1:] {
		if part.expires.Before(expires) {
			expires = part.expires
		}
	}
	id := s.compIDs.Next()
	s.dirMu.Lock()
	for _, part := range parts {
		s.partOf[part.id] = id
	}
	s.dirMu.Unlock()
	c := &composite{client: client, expires: expires, parts: parts}
	s.dir.Store(id, c)
	// Logged after the directory mutation: replay re-applies the record as
	// a plain overwrite, so the order only matters for the checkpointer,
	// which captures the directory after rotating the log.
	s.logDirAdd(id, c)
	return id, expires
}

// commitMoves records confirmed cross-shard slot migrations: the moved
// directory re-routes the promise ids from now on, and any composite
// referencing a migrated part gets a fresh directory entry with the
// updated shard. Entries are replaced, never mutated: a concurrent
// lock-free reader holding the old pointer sees a consistent stale part
// list, runs into promise-not-found on the vacated shard, and retries
// against the fresh entry. Called only while every shard lock the
// migration touched is held.
func (s *ShardedManager) commitMoves(migs []slotMigration) {
	if len(migs) == 0 {
		return
	}
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	for _, mg := range migs {
		s.moved.Store(mg.promiseID, mg.to)
		cid, ok := s.partOf[mg.promiseID]
		if !ok {
			continue
		}
		v, ok := s.dir.Load(cid)
		if !ok {
			continue
		}
		old := v.(*composite)
		fresh := &composite{
			client:  old.client,
			expires: old.expires,
			parts:   append([]compositePart(nil), old.parts...),
		}
		for i := range fresh.parts {
			if fresh.parts[i].id == mg.promiseID {
				fresh.parts[i].shard = mg.to
			}
		}
		s.dir.Store(cid, fresh)
	}
	for _, mg := range migs {
		s.logDirMove(mg.promiseID, mg.to)
	}
}

// GrantBatch grants many independent promise requests for one client under
// a single acquisition of the ordered shard lock set, batching the
// single-shard requests into one transaction per shard. Responses line up
// with reqs by index; each request is still individually atomic.
func (s *ShardedManager) GrantBatch(ctx context.Context, client string, reqs []PromiseRequest) ([]PromiseResponse, error) {
	if client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	if err := s.health.reject(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	routeAll := func() (involved map[int]bool, perShard map[int][]int, cross []int) {
		involved = make(map[int]bool)
		perShard = make(map[int][]int)
		for i, pr := range reqs {
			set, simple := s.routeRequest(pr)
			for sh := range set {
				involved[sh] = true
			}
			if simple {
				for sh := range set {
					perShard[sh] = append(perShard[sh], i)
				}
			} else {
				cross = append(cross, i)
			}
		}
		// As in route(): a widen retry is only safe when nothing committed
		// before it, so a multi-request batch with a property predicate
		// takes every lock up front.
		if len(s.shards) > 1 && len(reqs) > 1 && hasPropertyPred(reqs) {
			for i := range s.shards {
				involved[i] = true
			}
		}
		return involved, perShard, cross
	}
	involved, perShard, cross := routeAll()
	if len(involved) == 0 {
		return []PromiseResponse{}, nil
	}
	// Re-route under the locks, exactly as Execute does, so a composite
	// release target resolved (or a slot migrated) mid-flight cannot reach
	// unlocked shards; requests whose named predicates need the global
	// matcher escalate to the full lock set and the cross path.
	unlock := s.lockShards(involved)
retry:
	for {
		for {
			again, perShard2, cross2 := routeAll()
			if subsetOf(again, involved) {
				crossSet := make(map[int]bool, len(cross2))
				for _, idx := range cross2 {
					crossSet[idx] = true
				}
				needAll := false
				if s.mode == MatchingMode {
					for i, pr := range reqs {
						held, err := s.promiseRequestNeedsGlobal(pr)
						if err != nil {
							unlock()
							return nil, err
						}
						if held {
							// The displaced slot may re-home anywhere, so the
							// request needs the cross path under every lock.
							crossSet[i] = true
							needAll = true
						}
					}
				}
				if !needAll || len(involved) == len(s.shards) {
					for sh, idxs := range perShard2 {
						kept := idxs[:0]
						for _, idx := range idxs {
							if !crossSet[idx] {
								kept = append(kept, idx)
							}
						}
						perShard2[sh] = kept
					}
					cross2 = sortedKeys(crossSet)
					perShard, cross = perShard2, cross2
					break
				}
				again = s.allShards()
			}
			unlock()
			for i := range again {
				involved[i] = true
			}
			unlock = s.lockShards(involved)
		}

		out := make([]PromiseResponse, len(reqs))
		// On an internal error, grants already committed would be lost to the
		// caller (it never sees their ids), so they are handed back first.
		undo := func() {
			for _, pr := range out {
				s.releaseGrant(client, pr)
			}
		}
		for _, sh := range sortedKeys(perShard) {
			idxs := perShard[sh]
			batch := make([]PromiseRequest, len(idxs))
			for j, idx := range idxs {
				batch[j] = reqs[idx]
			}
			resps, err := s.shards[sh].m.GrantBatch(ctx, client, batch)
			if err != nil {
				undo()
				unlock()
				return nil, err
			}
			for j, idx := range idxs {
				out[idx] = resps[j]
			}
		}
		for _, idx := range cross {
			presp, err := s.grantCross(ctx, client, reqs[idx], involved)
			if errors.Is(err, errPrefilterWiden) {
				// The pre-filter flapped past the held lock set (see
				// grantCross Phase 1): compensate the batch's committed
				// grants and rerun it whole under every lock.
				undo()
				unlock()
				involved = s.allShards()
				unlock = s.lockShards(involved)
				continue retry
			}
			if err != nil {
				undo()
				unlock()
				return nil, err
			}
			out[idx] = presp
		}
		unlock()
		return out, nil
	}
}

// Release hands back the named promises atomically, exactly like
// Manager.Release; composite ids expand to their per-shard parts.
func (s *ShardedManager) Release(ctx context.Context, client string, ids ...string) error {
	if len(ids) == 0 {
		return nil
	}
	env := make([]EnvEntry, len(ids))
	for i, id := range ids {
		env[i] = EnvEntry{PromiseID: id, Release: true}
	}
	resp, err := s.Execute(ctx, Request{Client: client, Env: env})
	if err != nil {
		return err
	}
	return resp.ActionErr
}

// CheckBatch reports, per promise id, whether the promise is currently
// usable by client (see Manager.CheckBatch). The whole path is lock-free:
// ids route through the migration directory (atomic map reads) to their
// shard's immutable store snapshot, so checks never block grants and scale
// with cores no matter how many writers are running. A racing slot
// migration can make an id miss on its routed shard (the source committed,
// the directory not yet updated); such ids are re-dispatched, and after a
// bounded number of attempts the remaining ones are resolved definitively
// under the full shard lock set — the only situation in which a check
// takes a lock.
func (s *ShardedManager) CheckBatch(ctx context.Context, client string, ids []string) ([]error, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]error, len(ids))
	perShard := make(map[int][]int)
	for i, id := range ids {
		if isCompositeID(id) {
			out[i] = s.checkComposite(client, id)
			continue
		}
		sh, ok := s.ownerShard(id)
		if !ok {
			sh = 0
		}
		perShard[sh] = append(perShard[sh], i)
	}
	for attempt := 0; len(perShard) > 0; attempt++ {
		if attempt > migrationRetryLimit {
			// Migrations keep outrunning the directory updates; freeze them
			// by holding every lock and resolve what is left.
			unlock := s.lockShards(s.allShards())
			for _, shIdx := range sortedKeys(perShard) {
				for _, idx := range perShard[shIdx] {
					o, ok := s.ownerShard(ids[idx])
					if !ok {
						o = 0
					}
					out[idx] = s.shards[o].m.usable(client, ids[idx])
				}
			}
			unlock()
			return out, nil
		}
		next := make(map[int][]int)
		for _, shIdx := range sortedKeys(perShard) {
			idxs := perShard[shIdx]
			sh := s.shards[shIdx]
			mseq := s.migSeq.Load()
			var batch []string
			var bidx []int
			for _, idx := range idxs {
				if o, ok := s.ownerShard(ids[idx]); ok && o != shIdx {
					next[o] = append(next[o], idx)
					continue
				}
				batch = append(batch, ids[idx])
				bidx = append(bidx, idx)
			}
			errs, err := sh.m.CheckBatch(ctx, client, batch)
			if err != nil {
				return nil, err
			}
			for j, idx := range bidx {
				// Not-found may mean the id never existed — or that a
				// migration's source shard committed before the directory
				// re-routed the id. The migration seqlock separates the two
				// without locks: if no migration was in flight around the
				// read, the miss is definitive; otherwise re-dispatch, with
				// the freeze pass settling persistent races.
				if errors.Is(errs[j], ErrPromiseNotFound) && !s.migrationsQuiescedAt(mseq) {
					o, ok := s.ownerShard(ids[idx])
					if !ok {
						o = 0
					}
					next[o] = append(next[o], idx)
					continue
				}
				out[idx] = errs[j]
			}
		}
		perShard = next
	}
	return out, nil
}

// migrationsQuiescedAt reports whether no slot migration was in flight
// when before was loaded and none has begun or finished since — making a
// not-found read taken in between definitive rather than possibly stale.
func (s *ShardedManager) migrationsQuiescedAt(before uint64) bool {
	return before%2 == 0 && s.migSeq.Load() == before
}

// checkComposite checks every part of one composite, retrying when a
// migration replaced the directory entry mid-walk (the stale entry routes
// a part to its vacated shard, which answers promise-not-found).
func (s *ShardedManager) checkComposite(client, id string) error {
	for attempt := 0; ; attempt++ {
		if attempt > migrationRetryLimit {
			unlock := s.lockShards(s.allShards())
			defer unlock()
		}
		c := s.lookupComposite(client, id)
		if c == nil {
			return fmt.Errorf("%w: %s", ErrPromiseNotFound, id)
		}
		frozen := attempt > migrationRetryLimit
		err, stale := s.checkParts(client, c, frozen)
		if frozen || !stale {
			return err
		}
	}
}

// checkParts checks each part on its shard's snapshot, lock-free; locked
// means the caller holds every shard lock (the freeze pass), making the
// answer definitive. stale reports a part vanished from its recorded
// shard — the signature of racing a migration.
func (s *ShardedManager) checkParts(client string, c *composite, locked bool) (error, bool) {
	for _, part := range c.parts {
		if err := s.shards[part.shard].m.usable(client, part.id); err != nil {
			if errors.Is(err, ErrPromiseNotFound) && !locked {
				return nil, true
			}
			return err, false
		}
	}
	return nil, false
}

// Sweep expires lapsed promises on every shard — a compatibility shim now
// that each shard's expiry heap lapses promises at their deadlines (each
// shard's sweep takes its own lock through the expiry gate). Directory
// entries for expired composites stay behind, like rows in the done tables,
// so clients reusing the id still get the precise promise-expired error.
func (s *ShardedManager) Sweep() error {
	for _, sh := range s.shards {
		if err := sh.m.Sweep(); err != nil {
			return err
		}
	}
	return nil
}

// snapshotDir copies the composite directory for a stable walk (entries
// themselves are immutable).
func (s *ShardedManager) snapshotDir() map[string]*composite {
	snapshot := make(map[string]*composite)
	s.dir.Range(func(k, v any) bool {
		snapshot[k.(string)] = v.(*composite)
		return true
	})
	return snapshot
}

// PromiseInfo returns a copy of the promise with the given id, read from
// the owning shard's immutable store snapshot with no lock acquisition.
// Composite promises are reconstructed from their parts in original
// predicate order; a composite reports the worst lifecycle state among its
// parts. Both paths re-verify routing against racing slot migrations,
// exactly like CheckBatch, falling back to the full lock set only when a
// migration keeps outrunning the directory.
func (s *ShardedManager) PromiseInfo(id string) (Promise, error) {
	if !isCompositeID(id) {
		for attempt := 0; ; attempt++ {
			mseq := s.migSeq.Load()
			sh, ok := s.ownerShard(id)
			if !ok {
				return Promise{}, fmt.Errorf("%w: %s", ErrPromiseNotFound, id)
			}
			if attempt > migrationRetryLimit {
				// Freeze migrations and resolve definitively.
				unlock := s.lockShards(s.allShards())
				if o, ok := s.ownerShard(id); ok {
					sh = o
				}
				p, err := s.shards[sh].m.PromiseInfo(id)
				unlock()
				return p, err
			}
			p, err := s.shards[sh].m.PromiseInfo(id)
			if errors.Is(err, ErrPromiseNotFound) && !s.migrationsQuiescedAt(mseq) {
				continue // possibly racing a migration; re-route and retry
			}
			return p, err
		}
	}
	for attempt := 0; ; attempt++ {
		p, stale, err := s.compositeInfo(id, attempt > migrationRetryLimit)
		if !stale {
			return p, err
		}
	}
}

// compositeInfo reconstructs one composite from its parts. stale reports
// the walk raced a migration (a part vanished from its recorded shard) and
// must retry against the fresh directory entry; freeze resolves a
// persistent race by holding every shard lock for the walk.
func (s *ShardedManager) compositeInfo(id string, freeze bool) (_ Promise, stale bool, _ error) {
	if freeze {
		unlock := s.lockShards(s.allShards())
		defer unlock()
	}
	c := s.lookupComposite("", id)
	if c == nil {
		return Promise{}, false, fmt.Errorf("%w: %s", ErrPromiseNotFound, id)
	}
	n := 0
	for _, part := range c.parts {
		for _, idx := range part.predIdx {
			if idx+1 > n {
				n = idx + 1
			}
		}
	}
	out := Promise{
		ID:           id,
		Client:       c.client,
		Predicates:   make([]Predicate, n),
		Assigned:     make([]string, n),
		DelegatedQty: make([]int64, n),
		DelegatedID:  make([]string, n),
		Expires:      c.expires,
		State:        Active,
	}
	for _, part := range c.parts {
		p, err := s.shards[part.shard].m.PromiseInfo(part.id)
		if err != nil {
			if errors.Is(err, ErrPromiseNotFound) && !freeze {
				return Promise{}, true, nil
			}
			return Promise{}, false, err
		}
		for j, idx := range part.predIdx {
			out.Predicates[idx] = p.Predicates[j]
			if j < len(p.Assigned) {
				out.Assigned[idx] = p.Assigned[j]
			}
			if j < len(p.DelegatedQty) {
				out.DelegatedQty[idx] = p.DelegatedQty[j]
			}
			if j < len(p.DelegatedID) {
				out.DelegatedID[idx] = p.DelegatedID[j]
			}
		}
		if p.State != Active {
			out.State = p.State
		}
	}
	return out, false, nil
}

// ActivePromises returns copies of all active, unexpired promises across
// every shard, each shard read from its immutable store snapshot with no
// lock acquisition. Parts of composite promises appear individually, under
// their per-shard ids.
func (s *ShardedManager) ActivePromises() ([]Promise, error) {
	var out []Promise
	for _, sh := range s.shards {
		ps, err := sh.m.ActivePromises()
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

// Stats aggregates every shard's counters and merges their latency
// histograms over the union of every shard's retained reservoir samples.
// The merge is exact while no reservoir has overflowed; past that, each
// shard contributes at most its reservoir capacity, so a very hot shard is
// represented by the same sample budget as a cold one and merged
// percentiles lean toward the quieter shards (per-shard summaries stay
// individually representative — read PerShard when shards are skewed, which
// Imbalance flags). Summary counts always report true observation totals.
// Counters track per-shard work, not client-visible outcomes: a composite
// grant over N shards counts N requests and N grants, and the cross-shard
// pipeline's reserve/abort cycles add matching rejection and release
// counts.
//
// Consistency model: the scrape acquires no shard lock — it never slows a
// grant. It runs in two phases: a tight capture pass that copies every
// shard's counter values, reservoir samples and store-snapshot epoch
// back-to-back, then a merge/summarize pass over the captured copies.
// Each shard's captured values are individually coherent atomic reads;
// across shards the view can skew only by the work that committed during
// the capture pass itself (microseconds, with no sorting or summarizing
// in between), and each ShardStat.Epoch records exactly which committed
// state its shard had reached, making any residual skew observable
// instead of silent.
func (s *ShardedManager) Stats() Stats {
	type capture struct {
		epoch    uint64
		samples  []time.Duration
		count    int
		requests int64
		grants   int64
		reject   int64
		releases int64
		expire   int64
		preempt  int64
		violate  int64
		actErrs  int64
		expErrs  int64
	}
	caps := make([]capture, len(s.shards))
	// Phase 1 — capture: nothing but copies, so the cross-shard skew
	// window is as small as the loop itself.
	for i, sh := range s.shards {
		mm := &sh.m.metrics
		caps[i] = capture{
			epoch:    sh.m.store.Snapshot().Epoch(),
			samples:  mm.latency.Samples(),
			count:    mm.latency.Count(),
			requests: mm.requests.Value(),
			grants:   mm.grants.Value(),
			reject:   mm.rejections.Value(),
			releases: mm.releases.Value(),
			expire:   mm.expirations.Value(),
			preempt:  mm.preemptions.Value(),
			violate:  mm.violations.Value(),
			actErrs:  mm.actionErrors.Value(),
			expErrs:  mm.expiryErrors.Value(),
		}
	}
	// Phase 2 — merge and summarize from the captured copies.
	out := Stats{PerShard: make([]ShardStat, 0, len(s.shards))}
	var all []time.Duration
	var observed int
	var maxRequests int64
	for i := range caps {
		c := &caps[i]
		perShard := metrics.SummarizeDurations(c.samples)
		perShard.Count = c.count
		observed += c.count
		all = append(all, c.samples...)
		st := ShardStat{
			Shard:      i,
			Requests:   c.requests,
			Grants:     c.grants,
			Rejections: c.reject,
			Latency:    perShard,
			Epoch:      c.epoch,
		}
		out.Requests += st.Requests
		out.Grants += st.Grants
		out.Rejections += st.Rejections
		out.Releases += c.releases
		out.Expirations += c.expire
		out.Preemptions += c.preempt
		out.Violations += c.violate
		out.ActionErrors += c.actErrs
		out.ExpiryErrors += c.expErrs
		out.PerShard = append(out.PerShard, st)
		if st.Requests > maxRequests {
			maxRequests = st.Requests
		}
	}
	out.Latency = metrics.SummarizeDurations(all)
	out.Latency.Count = observed
	if out.Requests > 0 {
		out.Imbalance = float64(maxRequests) * float64(len(s.shards)) / float64(out.Requests)
	}
	out.PrefilterSkipped = s.prefilterSkipped.Value()
	s.imbalance.Set(out.Imbalance)
	return out
}

// Imbalance returns the shard-imbalance gauge as of the last Stats call
// (see Stats.Imbalance), without re-walking the shards.
func (s *ShardedManager) Imbalance() float64 { return s.imbalance.Value() }

// Audit runs every shard's consistency audit and checks the composite
// directory: each part of each live composite must resolve to a promise
// owned by the composite's client. Problems are prefixed with their shard.
// Like every other read path it works from the shards' immutable store
// snapshots and acquires no lock, so a continuous background audit costs
// the grant path nothing; each per-shard report is judged against one
// transactionally consistent state (see Manager.Audit for the model).
func (s *ShardedManager) Audit() (*AuditReport, error) {
	report := &AuditReport{}
	for i, sh := range s.shards {
		rep, err := sh.m.Audit()
		if err != nil {
			return nil, err
		}
		report.ActivePromises += rep.ActivePromises
		report.Slots += rep.Slots
		for _, p := range rep.Problems {
			report.Problems = append(report.Problems, fmt.Sprintf("shard %d: %s", i, p))
		}
	}
	for id, c := range s.snapshotDir() {
		problems := s.auditComposite(id, c)
		if len(problems) > 0 {
			// The snapshot entry may have raced a migration; judge the
			// fresh entry before reporting.
			if fresh := s.lookupComposite("", id); fresh != nil && fresh != c {
				problems = s.auditComposite(id, fresh)
			}
		}
		report.Problems = append(report.Problems, problems...)
	}
	moved := make(map[string]int)
	s.moved.Range(func(k, v any) bool {
		moved[k.(string)] = v.(int)
		return true
	})
	for _, id := range sortedStringKeys(moved) {
		shIdx := moved[id]
		mseq := s.migSeq.Load()
		if _, err := s.shards[shIdx].m.PromiseInfo(id); err != nil {
			if cur, ok := s.moved.Load(id); ok && cur.(int) != shIdx {
				continue // moved again mid-audit; the fresh entry is checked next run
			}
			if !s.migrationsQuiescedAt(mseq) {
				continue // racing a migration's confirm→directory window; next run settles it
			}
			report.Problems = append(report.Problems,
				fmt.Sprintf("moved: promise %s not found on shard %d: %v", id, shIdx, err))
		}
	}
	return report, nil
}

// auditComposite verifies one composite directory entry: every part must
// resolve on its recorded shard to a promise owned by the composite's
// client. A part that vanishes while a migration's confirm→directory
// window is open is skipped, not reported — the next audit sees the
// settled state.
func (s *ShardedManager) auditComposite(id string, c *composite) []string {
	var problems []string
	for _, part := range c.parts {
		mseq := s.migSeq.Load()
		p, err := s.shards[part.shard].m.PromiseInfo(part.id)
		if err != nil {
			if errors.Is(err, ErrPromiseNotFound) && !s.migrationsQuiescedAt(mseq) {
				continue
			}
			problems = append(problems,
				fmt.Sprintf("directory: composite %s part %s: %v", id, part.id, err))
			continue
		}
		if p.Client != c.client {
			problems = append(problems,
				fmt.Sprintf("directory: composite %s part %s owned by %q, want %q", id, part.id, p.Client, c.client))
		}
	}
	return problems
}

// sortedStringKeys returns m's keys in ascending order.
func sortedStringKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CreatePool registers a pool on its owning shard, in a transaction of its
// own.
func (s *ShardedManager) CreatePool(id string, onHand int64, props map[string]predicate.Value) error {
	sh := s.shards[s.ShardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tx := sh.m.Store().Begin(txn.Block)
	if err := sh.m.Resources().CreatePool(tx, id, onHand, props); err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return sh.m.durSync()
}

// CreateInstance registers a named instance on its owning shard, in a
// transaction of its own.
func (s *ShardedManager) CreateInstance(id string, props map[string]predicate.Value) error {
	sh := s.shards[s.ShardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tx := sh.m.Store().Begin(txn.Block)
	if err := sh.m.Resources().CreateInstance(tx, id, props); err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return sh.m.durSync()
}

// LoadSeed reads a resource seed file and creates its pools and instances
// on their owning shards. Unlike the single-store loader this is not
// atomic: a malformed entry leaves earlier entries created.
func (s *ShardedManager) LoadSeed(r io.Reader) (pools, instances int, err error) {
	ps, ins, err := resource.ParseSeed(r)
	if err != nil {
		return 0, 0, err
	}
	for _, p := range ps {
		if err := s.CreatePool(p.ID, p.OnHand, p.Props); err != nil {
			return pools, instances, err
		}
		pools++
	}
	for _, in := range ins {
		if err := s.CreateInstance(in.ID, in.Props); err != nil {
			return pools, instances, err
		}
		instances++
	}
	return pools, instances, nil
}

// Pools lists every pool across all shards, in id order, read from the
// shards' immutable store snapshots with no lock acquisition.
func (s *ShardedManager) Pools() ([]*resource.Pool, error) {
	var out []*resource.Pool
	for _, sh := range s.shards {
		ps, err := sh.m.Resources().Pools(sh.m.Store().Snapshot())
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Instances lists every named instance across all shards, in id order,
// read from the shards' immutable store snapshots with no lock
// acquisition.
func (s *ShardedManager) Instances() ([]*resource.Instance, error) {
	var out []*resource.Instance
	for _, sh := range s.shards {
		ins, err := sh.m.Resources().Instances(sh.m.Store().Snapshot())
		if err != nil {
			return nil, err
		}
		out = append(out, ins...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// PoolLevel returns the quantity on hand of one pool, for tools and tests,
// read lock-free from the owning shard's snapshot.
func (s *ShardedManager) PoolLevel(pool string) (int64, error) {
	return s.shards[s.ShardOf(pool)].m.PoolLevel(pool)
}

// sortedKeys returns the keys of m in ascending order — every multi-shard
// iteration uses it so shards are always visited in lock order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
