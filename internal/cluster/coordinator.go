package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/predicate"
)

// NodeState is a member's place in the coordinator's health machine.
type NodeState string

const (
	// StateHealthy: answering probes within budget; full traffic.
	StateHealthy NodeState = "healthy"
	// StateSuspect: missed pings, fewer than FailThreshold in a row.
	StateSuspect NodeState = "suspect"
	// StateDown: FailThreshold consecutive missed pings. Re-admitted the
	// moment a ping answers again.
	StateDown NodeState = "down"
	// StateDraining: answering but slow — its canary exceeded CanaryMax
	// SlowThreshold times in a row. The coordinator migrates its movable
	// promise slots to successors; the node returns to healthy once it is
	// drained and fast again.
	StateDraining NodeState = "draining"
)

// coordinatorClient identifies the coordinator's own federated sessions.
const coordinatorClient = "cluster-coordinator"

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Ports are the member nodes to supervise.
	Ports []NodePort
	// VNodes sizes the ring used for successor order (0 = DefaultVNodes).
	VNodes int
	// Clock stamps migration records; nil means the system clock.
	Clock clock.Clock
	// CanaryMax is the grant-latency budget; a canary slower than this
	// counts against the node (0 = 250ms).
	CanaryMax time.Duration
	// FailThreshold is how many consecutive missed pings mark a node down
	// (0 = 3).
	FailThreshold int
	// SlowThreshold is how many consecutive over-budget canaries start a
	// drain (0 = 3).
	SlowThreshold int
	// ReserveTTL bounds the drain's federated sessions (0 = node default).
	ReserveTTL time.Duration
	// Breaker, when non-nil, wraps every port in a per-node circuit
	// breaker (already-wrapped ports are reused — hand the Engine's
	// wrapped ports in to share one breaker per node). Probes pass through
	// an open circuit and their outcomes feed it, so the coordinator's
	// probe rounds drive breaker recovery.
	Breaker *BreakerConfig
}

// MigrationRecord is one slot migration a drain performed.
type MigrationRecord struct {
	Time    time.Time `json:"time"`
	Promise string    `json:"promise"`
	From    string    `json:"from"`
	To      string    `json:"to"`
}

// NodeStatus is one member's health snapshot. Breaker stays positioned
// after State: external scrapers key on the id…state prefix order.
type NodeStatus struct {
	ID         string        `json:"id"`
	URL        string        `json:"url,omitempty"`
	State      NodeState     `json:"state"`
	Breaker    BreakerState  `json:"breaker,omitempty"`
	Fails      int           `json:"fails,omitempty"`
	Slows      int           `json:"slows,omitempty"`
	LastCanary time.Duration `json:"last-canary-ns,omitempty"`
	LastError  string        `json:"last-error,omitempty"`
}

// ClusterStatus is the coordinator's full view, served at /cluster/status.
type ClusterStatus struct {
	Nodes      []NodeStatus      `json:"nodes"`
	Migrations []MigrationRecord `json:"migrations,omitempty"`
}

type nodeHealth struct {
	state      NodeState
	fails      int
	slows      int
	lastCanary time.Duration
	lastErr    string
}

// Coordinator health-checks the member set and remediates: nodes that stop
// answering are marked down (and re-admitted when they answer again);
// nodes that answer slowly are drained — their movable promise slots
// migrate to ring successors so held promises survive the sick node.
// Grants never pass through the coordinator; it is control plane only.
type Coordinator struct {
	ring  *Ring
	order []string
	ports map[string]NodePort
	clk   clock.Clock

	canaryMax     time.Duration
	failThreshold int
	slowThreshold int
	ttl           time.Duration

	mu         sync.Mutex
	health     map[string]*nodeHealth
	migrations []MigrationRecord
}

// NewCoordinator builds a coordinator over the given member ports.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Ports) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one node port")
	}
	ports := make(map[string]NodePort, len(cfg.Ports))
	ids := make([]string, 0, len(cfg.Ports))
	for _, p := range cfg.Ports {
		if _, dup := ports[p.ID()]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", p.ID())
		}
		ports[p.ID()] = p
		ids = append(ids, p.ID())
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
	c := &Coordinator{
		ring:          ring,
		order:         ring.Members(),
		ports:         ports,
		clk:           clk,
		canaryMax:     cfg.CanaryMax,
		failThreshold: cfg.FailThreshold,
		slowThreshold: cfg.SlowThreshold,
		ttl:           cfg.ReserveTTL,
		health:        make(map[string]*nodeHealth, len(ids)),
	}
	if c.canaryMax <= 0 {
		c.canaryMax = 250 * time.Millisecond
	}
	if c.failThreshold <= 0 {
		c.failThreshold = 3
	}
	if c.slowThreshold <= 0 {
		c.slowThreshold = 3
	}
	for _, id := range ids {
		c.health[id] = &nodeHealth{state: StateHealthy}
	}
	return c, nil
}

// Tick runs one probe round: every member is pinged and canaried, states
// advance, and any node entering (or stuck in) draining gets a drain pass.
func (c *Coordinator) Tick(ctx context.Context) {
	var toDrain []string
	for _, id := range c.order {
		port := c.ports[id]
		err := port.Ping(ctx)
		c.mu.Lock()
		h := c.health[id]
		if err != nil {
			h.fails++
			h.lastErr = err.Error()
			if h.fails >= c.failThreshold {
				h.state = StateDown
			} else if h.state == StateHealthy {
				h.state = StateSuspect
			}
			c.mu.Unlock()
			continue
		}
		h.fails = 0
		h.lastErr = ""
		if h.state == StateSuspect || h.state == StateDown {
			// Re-admission: the node answers again. Its unmoved promises
			// were never forgotten — they live in the node's own store.
			h.state = StateHealthy
			h.slows = 0
		}
		c.mu.Unlock()

		lat, cerr := port.Canary(ctx)
		c.mu.Lock()
		h.lastCanary = lat
		switch {
		case cerr != nil:
			h.lastErr = cerr.Error()
		case lat > c.canaryMax:
			h.slows++
			if h.slows >= c.slowThreshold && h.state == StateHealthy {
				h.state = StateDraining
			}
		default:
			h.slows = 0
			if h.state == StateDraining {
				h.state = StateHealthy
			}
		}
		if h.state == StateDraining {
			toDrain = append(toDrain, id)
		}
		c.mu.Unlock()
	}
	for _, id := range toDrain {
		if _, err := c.Drain(ctx, id); err != nil {
			c.mu.Lock()
			c.health[id].lastErr = fmt.Sprintf("drain: %v", err)
			c.mu.Unlock()
		}
	}
}

// Run ticks until the context ends. every <= 0 means one second.
func (c *Coordinator) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		c.Tick(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// healthyDests returns the drain destinations for src: healthy members in
// ring successor order.
func (c *Coordinator) healthyDests(src string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, id := range c.ring.SuccessorOrder(src) {
		if c.health[id].state == StateHealthy {
			out = append(out, id)
		}
	}
	return out
}

// Drain migrates src's movable promise slots to healthy successors and
// returns how many slots could not move (non-migratable, composite
// members, or nowhere to host them). The held promises keep their ids,
// clients and expiries; watchers on the moving promises observe a
// "migrated" event and the promises stay checkable throughout — first at
// the source's moved directory, then at the destination.
func (c *Coordinator) Drain(ctx context.Context, src string) (stranded int, err error) {
	dests := c.healthyDests(src)
	if len(dests) == 0 {
		return 0, fmt.Errorf("cluster: no healthy destination for draining node %s", src)
	}

	// One federated session on the source exports every slot it holds.
	srcRes, err := c.ports[src].FedReserve(ctx, coordinatorClient, core.FedReserveSpec{
		WantProps: true,
		TTL:       c.ttl,
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: reserve on draining node %s: %w", src, err)
	}
	if srcRes.Reject != nil {
		return 0, fmt.Errorf("cluster: reserve on draining node %s rejected: %s", src, srcRes.Reject.Reason)
	}
	srcAbort := func() { _ = c.ports[src].FedAbort(context.WithoutCancel(ctx), srcRes.SessionID) }
	if srcRes.Context == nil || len(srcRes.Context.Slots) == 0 {
		srcAbort()
		return 0, nil
	}

	var movable []core.FedSlot
	for _, sl := range srcRes.Context.Slots {
		if sl.CrossNode {
			movable = append(movable, sl)
		} else {
			stranded++
		}
	}
	if len(movable) == 0 {
		srcAbort()
		return stranded, nil
	}

	// The movable slots' expressions, deduplicated, become property
	// predicates on the destination reserves: they scope each node's
	// pre-filter and exported candidates without granting anything.
	exprSet := make(map[string]bool)
	var props []core.Predicate
	for _, sl := range movable {
		if exprSet[sl.Expr] {
			continue
		}
		exprSet[sl.Expr] = true
		p, perr := core.Property(sl.Expr)
		if perr != nil {
			srcAbort()
			return stranded, fmt.Errorf("cluster: slot %s expression %q: %v", sl.Key, sl.Expr, perr)
		}
		props = append(props, p)
	}
	predIdx := make([]int, len(props))
	for i := range predIdx {
		predIdx[i] = i
	}

	type destSession struct {
		id    string
		sid   string
		cands []core.FedCandidate
	}
	var sessions []destSession
	abortDests := func() {
		for _, d := range sessions {
			_ = c.ports[d.id].FedAbort(context.WithoutCancel(ctx), d.sid)
		}
	}
	for _, id := range dests {
		res, rerr := c.ports[id].FedReserve(ctx, coordinatorClient, core.FedReserveSpec{
			Predicates: props,
			PredIdx:    predIdx,
			WantProps:  true,
			TTL:        c.ttl,
		})
		if rerr != nil || res.Reject != nil {
			continue // a sick destination just doesn't receive slots
		}
		d := destSession{id: id, sid: res.SessionID}
		if res.Context != nil {
			d.cands = res.Context.Candidates
		}
		sessions = append(sessions, d)
	}
	if len(sessions) == 0 {
		srcAbort()
		return stranded, fmt.Errorf("cluster: no destination reserved for draining node %s", src)
	}

	// Greedy placement in successor order: each slot takes the first free
	// destination instance satisfying its expression.
	exprs := make(map[string]predicate.Expr, len(exprSet))
	for s := range exprSet {
		e, perr := predicate.Parse(s)
		if perr != nil {
			srcAbort()
			abortDests()
			return stranded, fmt.Errorf("cluster: parse %q: %v", s, perr)
		}
		exprs[s] = e
	}
	used := make(map[string]bool)
	specs := make(map[string]*core.FedConfirmSpec)
	srcSpec := &core.FedConfirmSpec{}
	var placed []MigrationRecord
	now := c.clk.Now()
	for _, sl := range movable {
		pid, ok := slotPromiseID(sl.Key)
		if !ok {
			continue
		}
		done := false
		for _, d := range sessions {
			for _, cand := range d.cands {
				if used[cand.Instance] || cand.Tentative {
					continue
				}
				sat, eerr := predicate.Eval(exprs[sl.Expr], candInstance(cand).Env())
				if eerr != nil || !sat {
					continue
				}
				used[cand.Instance] = true
				if specs[d.id] == nil {
					specs[d.id] = &core.FedConfirmSpec{}
				}
				specs[d.id].MigrateIn = append(specs[d.id].MigrateIn, core.FedMigrateIn{
					ID:          pid,
					Client:      sl.Client,
					Expr:        sl.Expr,
					Expires:     sl.Expires,
					Instance:    cand.Instance,
					FromNode:    src,
					Priority:    sl.Priority,
					Preemptible: sl.Preemptible,
				})
				srcSpec.MigrateOut = append(srcSpec.MigrateOut, pid)
				placed = append(placed, MigrationRecord{Time: now, Promise: pid, From: src, To: d.id})
				done = true
				break
			}
			if done {
				break
			}
		}
		if !done {
			stranded++
		}
	}
	if len(srcSpec.MigrateOut) == 0 {
		srcAbort()
		abortDests()
		return stranded, nil
	}

	// Confirm destinations before the source: a failure in between leaves
	// a duplicate (which the unwind releases at the destination), never a
	// lost promise.
	var confirmed []destSession
	for _, d := range sessions {
		if specs[d.id] == nil {
			_ = c.ports[d.id].FedAbort(context.WithoutCancel(ctx), d.sid)
			continue
		}
		if _, cerr := c.ports[d.id].FedConfirm(ctx, d.sid, *specs[d.id]); cerr != nil {
			// This destination's slots stay at the source.
			dropDest(srcSpec, specs[d.id], &placed)
			stranded += len(specs[d.id].MigrateIn)
			continue
		}
		confirmed = append(confirmed, d)
	}
	if len(srcSpec.MigrateOut) == 0 {
		srcAbort()
		return stranded, nil
	}
	if _, cerr := c.ports[src].FedConfirm(ctx, srcRes.SessionID, *srcSpec); cerr != nil {
		// The destinations committed copies the source still owns; release
		// the copies so exactly one holder remains.
		for _, d := range confirmed {
			if specs[d.id] == nil {
				continue
			}
			for _, mi := range specs[d.id].MigrateIn {
				_ = c.ports[d.id].Release(context.WithoutCancel(ctx), mi.Client, mi.ID)
			}
		}
		return stranded + len(srcSpec.MigrateOut), fmt.Errorf("cluster: confirm on draining node %s: %w", src, cerr)
	}

	c.mu.Lock()
	c.migrations = append(c.migrations, placed...)
	c.mu.Unlock()
	return stranded, nil
}

// dropDest removes a failed destination's slots from the source's confirm
// spec and the placement record.
func dropDest(srcSpec *core.FedConfirmSpec, dest *core.FedConfirmSpec, placed *[]MigrationRecord) {
	dropped := make(map[string]bool, len(dest.MigrateIn))
	for _, mi := range dest.MigrateIn {
		dropped[mi.ID] = true
	}
	var out []string
	for _, id := range srcSpec.MigrateOut {
		if !dropped[id] {
			out = append(out, id)
		}
	}
	srcSpec.MigrateOut = out
	var keep []MigrationRecord
	for _, r := range *placed {
		if !dropped[r.Promise] {
			keep = append(keep, r)
		}
	}
	*placed = keep
}

// Status snapshots every member's health and the migration history.
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ClusterStatus{Migrations: append([]MigrationRecord(nil), c.migrations...)}
	for _, id := range c.order {
		h := c.health[id]
		ns := NodeStatus{
			ID:         id,
			URL:        c.ports[id].URL(),
			State:      h.state,
			Fails:      h.fails,
			Slows:      h.slows,
			LastCanary: h.lastCanary,
			LastError:  h.lastErr,
		}
		if bp, ok := c.ports[id].(*BreakerPort); ok {
			ns.Breaker = bp.BreakerState()
		}
		out.Nodes = append(out.Nodes, ns)
	}
	return out
}

// BreakerStates snapshots each supervised node's circuit state. Empty when
// the ports carry no breakers.
func (c *Coordinator) BreakerStates() map[string]BreakerState {
	return breakerStates(c.ports)
}

// StatusEndpoint serves the coordinator's cluster view.
const StatusEndpoint = "/cluster/status"

// Handler returns the coordinator's HTTP surface: GET /cluster/status as a
// text table, or JSON with ?format=json.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+StatusEndpoint, func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(st)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var b strings.Builder
		fmt.Fprintf(&b, "%-12s %-28s %-10s %-10s %8s %12s  %s\n", "NODE", "URL", "STATE", "BREAKER", "FAILS", "CANARY", "ERROR")
		for _, n := range st.Nodes {
			canary := "-"
			if n.LastCanary > 0 {
				canary = n.LastCanary.Round(time.Microsecond).String()
			}
			breaker := "-"
			if n.Breaker != "" {
				breaker = string(n.Breaker)
			}
			fmt.Fprintf(&b, "%-12s %-28s %-10s %-10s %8d %12s  %s\n", n.ID, n.URL, n.State, breaker, n.Fails, canary, n.LastError)
		}
		if len(st.Migrations) > 0 {
			fmt.Fprintf(&b, "\nmigrations:\n")
			for _, m := range st.Migrations {
				fmt.Fprintf(&b, "  %s  %s  %s -> %s\n", m.Time.Format(time.RFC3339), m.Promise, m.From, m.To)
			}
		}
		_, _ = w.Write([]byte(b.String()))
	})
	return mux
}
