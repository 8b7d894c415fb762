package promises

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/transport"
)

// options collects everything Open can configure; the zero value is a
// self-contained single-store engine.
type options struct {
	shards          int
	clk             clock.Clock
	defaultDuration time.Duration
	maxDuration     time.Duration
	mode            PropertyMode
	modeSet         bool
	suppliers       map[string]Supplier
	actions         core.ActionResolver
	standardActions bool
	expiryWarning   time.Duration
	replayRing      int
	defaultPriority int

	dataDir         string
	syncPolicy      SyncPolicy
	syncPolicySet   bool
	syncEvery       time.Duration
	checkpointEvery time.Duration
	reprobeEvery    time.Duration

	remoteURL  string
	clientID   string
	httpClient *http.Client

	nodeID         string
	clusterNodes   map[string]string
	reconcileEvery time.Duration
}

// anyLocal reports whether an option that only a local engine honours is
// set (WithPropertyMode aside: a cluster engine mirrors its nodes' mode).
func (o *options) anyLocal() bool {
	return o.shards != 0 || o.clk != nil || o.defaultDuration != 0 || o.maxDuration != 0 ||
		o.suppliers != nil || o.actions != nil || o.expiryWarning != 0 || o.replayRing != 0 ||
		o.dataDir != "" || o.nodeID != "" || o.defaultPriority != 0
}

// Option configures Open.
type Option func(*options)

// WithShards stripes the engine's state across n independent shards so
// concurrent clients on different resources proceed in parallel. n <= 1
// yields the single-store §8 reference engine. Local engines only.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithClock drives promise expiry from the given clock — tests and
// simulations pass FakeClock(). Local engines only.
func WithClock(c clock.Clock) Option { return func(o *options) { o.clk = c } }

// WithDefaultDuration sets the duration applied when a request names none.
// Local engines only.
func WithDefaultDuration(d time.Duration) Option {
	return func(o *options) { o.defaultDuration = d }
}

// WithMaxDuration caps granted durations (§6: the manager "might … offer a
// guarantee that expires sooner than the client wished"). Local engines
// only.
func WithMaxDuration(d time.Duration) Option { return func(o *options) { o.maxDuration = d } }

// WithPropertyMode selects the property-view technique (§5); the default is
// MatchingMode. Local engines only.
func WithPropertyMode(m PropertyMode) Option {
	return func(o *options) { o.mode = m; o.modeSet = true }
}

// WithSuppliers maps pool ids to upstream promise makers for delegation
// (§5); see EngineSupplier. Local engines only.
func WithSuppliers(s map[string]Supplier) Option { return func(o *options) { o.suppliers = s } }

// WithActions installs a resolver for Request.ActionName, so named service
// operations run locally exactly as a daemon runs wire actions. Local
// engines only.
func WithActions(r core.ActionResolver) Option { return func(o *options) { o.actions = r } }

// WithStandardActions installs the standard resource-operation handlers
// (adjust-pool, pool-level, take-instance, release-instance) as the
// engine's action resolver — the same set every promised daemon serves.
// Local engines only.
func WithStandardActions() Option { return func(o *options) { o.standardActions = true } }

// WithExpiryWarning makes the engine emit an EventExpiryImminent on Watch
// streams this long before each promise's deadline, so clients renew
// reactively instead of polling CheckBatch. Zero (the default) disables the
// warning. Local engines only; a remote engine streams whatever its daemon
// was configured with (promised -expiry-warning).
func WithExpiryWarning(d time.Duration) Option {
	return func(o *options) { o.expiryWarning = d }
}

// WithReplayRing sizes the event bus's replay ring: how many recent events
// a Watch subscriber can resume across with AfterSeq/Last-Event-ID before
// hitting a gap. Zero (the default) means core.DefaultReplayRing (4096).
// Size it to the longest outage times the event rate you need to survive.
// Local engines only; a remote engine resumes against whatever ring its
// daemon was started with (promised -replay-ring).
func WithReplayRing(n int) Option { return func(o *options) { o.replayRing = n } }

// WithDefaultPriority sets the priority tier stamped on requests that name
// none (PromiseRequest.Priority == 0). Higher tiers may displace
// lower-tier preemptible holds when capacity is exhausted; see
// docs/architecture.md ("Priority & preemption"). Local engines only.
func WithDefaultPriority(p int) Option { return func(o *options) { o.defaultPriority = p } }

// WithDataDir makes the engine durable: every committed transaction and
// published event is written to an append-only, CRC-framed log under dir,
// periodically compacted into checkpoints, and Open recovers the
// directory's state — promises, pools, escrow, soft locks, pending
// expiries, and the Watch replay ring — before serving, so the engine picks
// up where the previous process stopped (see docs/operations.md for the
// layout and recovery semantics). One live process per directory. Local
// engines only; a remote engine's durability belongs to its daemon
// (promised -data-dir).
func WithDataDir(dir string) Option { return func(o *options) { o.dataDir = dir } }

// WithSyncPolicy selects when log writes reach stable storage: SyncAlways
// (the default — a responded request is durable), SyncInterval (group
// fsync on a timer; see WithSyncEvery), or SyncNone (the OS decides).
// Requires WithDataDir.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *options) { o.syncPolicy = p; o.syncPolicySet = true }
}

// WithSyncEvery sets the background fsync cadence under
// SyncInterval; zero means 50ms. Requires WithDataDir.
func WithSyncEvery(d time.Duration) Option { return func(o *options) { o.syncEvery = d } }

// WithCheckpointEvery sets the automatic checkpoint cadence — how often the
// log is compacted into a snapshot of current state. Zero means 1 minute; a
// negative duration disables automatic checkpoints (Checkpoint on the
// concrete engine still works). Requires WithDataDir.
func WithCheckpointEvery(d time.Duration) Option { return func(o *options) { o.checkpointEvery = d } }

// WithReprobeEvery sets how often a degraded engine — one whose log writes
// started failing, rejecting mutations with ErrDegraded while reads stay up
// — probes the data directory for recovery. A successful probe restores
// full service automatically. Zero means 5 seconds. Requires WithDataDir;
// see docs/operations.md, "Overload & degraded mode".
func WithReprobeEvery(d time.Duration) Option { return func(o *options) { o.reprobeEvery = d } }

// WithRemote makes Open return a client engine for the promised daemon at
// url (e.g. "http://localhost:8642") instead of constructing local state.
// Combine with WithClientID and WithHTTPClient only.
func WithRemote(url string) Option { return func(o *options) { o.remoteURL = url } }

// WithNodeID names this engine as a cluster member: promise ids are
// namespaced "<id>!…" so ids issued by different nodes never collide and
// self-describe their issuing node (how the cluster layer routes checks
// and releases). Forces the sharded engine even at one shard. The id must
// stay stable across restarts of a durable node. Local engines only.
func WithNodeID(id string) Option { return func(o *options) { o.nodeID = id } }

// WithCluster makes Open return a federated engine over the promised
// nodes in the given id -> base-URL map: single-node traffic routes to
// the consistent-hash owner in one round trip, and grants spanning nodes
// run the two-phase reserve/confirm path. Combine with WithClientID,
// WithHTTPClient and WithPropertyMode (which must mirror the nodes'
// mode) only.
func WithCluster(nodes map[string]string) Option {
	return func(o *options) { o.clusterNodes = nodes }
}

// WithReconcileEvery makes a cluster engine retry its queued compensations
// (partial-failure unwinds whose node was unreachable) on this cadence in
// the background, instead of only when Reconcile is called explicitly.
// Requires WithCluster.
func WithReconcileEvery(d time.Duration) Option { return func(o *options) { o.reconcileEvery = d } }

// WithClientID sets the default promise-client identity a remote engine
// stamps on requests that carry none.
func WithClientID(id string) Option { return func(o *options) { o.clientID = id } }

// WithHTTPClient sets the *http.Client a remote engine sends through.
func WithHTTPClient(h *http.Client) Option { return func(o *options) { o.httpClient = h } }

// Open builds a promise engine. With no options it is a self-contained
// single-store manager (fresh store and resource manager); WithShards(n)
// stripes state across n shards; WithRemote(url) returns a wire client for
// a running daemon. All three satisfy Engine, so everything downstream of
// Open is deployment-agnostic.
//
// Open replaces the former Config/ShardedConfig constructors; New and
// NewSharded remain as deprecated shims over the same machinery.
func Open(opts ...Option) (Engine, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.standardActions {
		if o.actions != nil {
			return nil, fmt.Errorf("promises: WithActions and WithStandardActions are mutually exclusive")
		}
		reg := service.NewRegistry()
		service.RegisterStandard(reg)
		o.actions = reg
	}
	if o.clusterNodes != nil {
		if o.remoteURL != "" {
			return nil, fmt.Errorf("promises: WithCluster and WithRemote are mutually exclusive")
		}
		if o.anyLocal() {
			return nil, fmt.Errorf("promises: WithCluster cannot combine with local-engine options")
		}
		ports := make([]cluster.NodePort, 0, len(o.clusterNodes))
		for id, url := range o.clusterNodes {
			ports = append(ports, cluster.NewHTTPPort(id, url, o.clientID, o.httpClient))
		}
		return cluster.New(cluster.Config{Ports: ports, Mode: o.mode, ReconcileEvery: o.reconcileEvery})
	}
	if o.reconcileEvery != 0 {
		return nil, fmt.Errorf("promises: WithReconcileEvery requires WithCluster")
	}
	if o.remoteURL != "" {
		if o.modeSet || o.anyLocal() {
			return nil, fmt.Errorf("promises: WithRemote(%q) cannot combine with local-engine options", o.remoteURL)
		}
		return &transport.Client{BaseURL: o.remoteURL, Client: o.clientID, HTTP: o.httpClient}, nil
	}
	if o.httpClient != nil {
		return nil, fmt.Errorf("promises: WithHTTPClient requires WithRemote")
	}
	if o.dataDir == "" && (o.syncPolicySet || o.syncEvery != 0 || o.checkpointEvery != 0 || o.reprobeEvery != 0) {
		return nil, fmt.Errorf("promises: sync, checkpoint, and reprobe options require WithDataDir")
	}
	// One engine config serves all four local shapes, so every local option
	// reaches every engine path.
	cfg := core.Config{
		Clock:           o.clk,
		DefaultDuration: o.defaultDuration,
		MaxDuration:     o.maxDuration,
		PropertyMode:    o.mode,
		Suppliers:       o.suppliers,
		Actions:         o.actions,
		ExpiryWarning:   o.expiryWarning,
		ReplayRing:      o.replayRing,
		DefaultPriority: o.defaultPriority,
	}
	sharded := o.shards > 1 || o.nodeID != ""
	scfg := core.ShardedConfig{Config: cfg, Shards: max(o.shards, 1), IDNamespace: o.nodeID}
	if o.dataDir != "" {
		dur := core.DurabilityOptions{
			Dir:             o.dataDir,
			Sync:            o.syncPolicy,
			SyncEvery:       o.syncEvery,
			CheckpointEvery: o.checkpointEvery,
			ReprobeEvery:    o.reprobeEvery,
		}
		if sharded {
			return core.OpenDurableSharded(scfg, dur)
		}
		return core.OpenDurable(cfg, dur)
	}
	if sharded {
		return core.NewSharded(scfg)
	}
	return core.New(cfg)
}

// Seeder is the resource-seeding surface of the local engines: both
// *Manager and *ShardedManager implement it, so setup code can feed pools
// and instances to whatever Open returned. Remote engines do not seed —
// the daemon owns its resources (use its -seed/-seed-file flags).
type Seeder interface {
	CreatePool(id string, onHand int64, props map[string]Value) error
	CreateInstance(id string, props map[string]Value) error
	PoolLevel(pool string) (int64, error)
}

var (
	_ Seeder = (*core.Manager)(nil)
	_ Seeder = (*core.ShardedManager)(nil)
)

// Seed type-asserts an Engine to its seeding surface, failing with a clear
// error for remote engines.
func Seed(e Engine) (Seeder, error) {
	s, ok := e.(Seeder)
	if !ok {
		return nil, fmt.Errorf("promises: engine %T cannot seed resources locally; seed the daemon instead", e)
	}
	return s, nil
}
