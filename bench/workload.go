package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/promises"
)

// Sizing shared by every workload. The sandbox has two cores, so two
// closed-loop clients already saturate it; engines are pinned at four
// shards so the numbers do not follow GOMAXPROCS defaults.
const (
	numClients        = 2
	numShards         = 4
	standingPerClient = 7 // long-held promises that widen CheckBatch to 1–8 ids
	maxCheckDepth     = standingPerClient + 1

	poolLevel       = int64(1) << 40
	promiseDuration = time.Minute
	standingHold    = 10 * time.Minute // the engines' MaxDuration
	abandonDuration = 200 * time.Millisecond
	opDeadline      = 2 * time.Second

	orderPools   = 1024
	clusterPools = 96

	hotelFloors        = 16
	hotelViews         = 4
	hotelRoomsPerCell  = 16
	hotelRooms         = hotelFloors * hotelViews * hotelRoomsPerCell
	hotelResidents     = 768
	hotelResidentsView = hotelResidents / hotelViews
	// The sold-out cell: every room of (top floor, last view) is held by a
	// named resident promise, so a property request confined to that cell
	// is infeasible by construction.
	soldOutFloor = hotelFloors
	soldOutView  = hotelViews - 1

	watchSubscribers = 128
	watchBuffer      = 1024
)

var (
	hotelViewNames = [hotelViews]string{"sea", "garden", "city", "pool"}
	clusterNodeIDs = []string{"n0", "n1", "n2"}
)

// workloadNames lists the workloads in report order.
var workloadNames = []string{"order_local", "hotel_property", "daemon_durable", "cluster_span", "watch_fanout"}

// workloadWhy is the one-line reason each workload exists (BENCHMARK.json
// carries the same text; a test keeps them equal).
var workloadWhy = map[string]string{
	"order_local":    "in-process sharded engine, escrow pools: core+txn+escrow do all the work; wal, transport, cluster, matching bypassed (the baseline)",
	"hotel_property": "same engine in MatchingMode over 1024 rooms and 768 resident promises: predicate+matching+softlock dominate, escrow idle",
	"daemon_durable": "order_local's op stream through HTTP into a SyncAlways data-dir node: wal fsync and transport/protocol dominate",
	"cluster_span":   "three in-memory nodes behind a WithCluster engine, 25% two-node grants: cluster routing and transport dominate, wal bypassed",
	"watch_fanout":   "order_local's op stream with 128 Watch subscribers: the event bus fan-out is the bottleneck on the same write path",
}

type settleKind uint8

const (
	settlePurchase settleKind = iota // Execute{Env release + adjust-pool −qty}
	settleRelease                    // Release(id)
	settleAbandon                    // no settle: a short promise left to the expiry heap
)

func (k settleKind) String() string {
	return [...]string{"purchase", "release", "abandon"}[k]
}

// flow is one generated sample: a grant, a check over depth ids, a settle.
type flow struct {
	req      promises.PromiseRequest
	depth    int // ids in the CheckBatch, the new promise included
	settle   settleKind
	pool     string // purchase target
	qty      int64
	feasible bool // whether the grant must be accepted
}

// canonical renders the flow for the op-stream hash.
func (f *flow) canonical() string {
	s := ""
	for _, p := range f.req.Predicates {
		switch p.View {
		case promises.AnonymousView:
			s += "q:" + p.Pool + "=" + strconv.FormatInt(p.Qty, 10) + ";"
		case promises.NamedView:
			s += "n:" + p.Instance + ";"
		default:
			s += "p:" + p.Source + ";"
		}
	}
	return fmt.Sprintf("%s|%s|%d|%s|%v", s, f.req.Duration, f.depth, f.settle, f.feasible)
}

// generator yields one client's flows. Streams depend only on (family,
// seed, client): the program under test never sees the seed.
type generator interface {
	next() flow
}

// newGenerator builds the stream of one client of one workload.
func newGenerator(workload string, seed int64, client int) (generator, error) {
	switch workload {
	case "order_local", "daemon_durable":
		return newOrderGen(seed, client, 0.05), nil
	case "watch_fanout":
		return newOrderGen(seed, client, 0), nil
	case "hotel_property":
		return newHotelGen(seed, client), nil
	case "cluster_span":
		return newClusterGen(seed, client)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func clientRand(family string, seed int64, client int) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d", family, seed, client)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

func clientName(client int) string { return "bench-c" + strconv.Itoa(client) }

// streamHash digests the first n flows of every client.
func streamHash(workload string, seed int64, n int) (string, error) {
	h := sha256.New()
	for c := 0; c < numClients; c++ {
		g, err := newGenerator(workload, seed, c)
		if err != nil {
			return "", err
		}
		for i := 0; i < n; i++ {
			f := g.next()
			h.Write([]byte(f.canonical()))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ---- order family: anonymous pools, purchase settles ----

func orderPoolName(i int) string { return fmt.Sprintf("pool-%04d", i) }

var orderPoolNames = func() []string {
	out := make([]string, orderPools)
	for i := range out {
		out[i] = orderPoolName(i)
	}
	return out
}()

type orderGen struct {
	r       *rand.Rand
	zipf    *rand.Zipf
	abandon float64
}

func newOrderGen(seed int64, client int, abandonShare float64) *orderGen {
	r := clientRand("order", seed, client)
	return &orderGen{r: r, zipf: rand.NewZipf(r, 1.1, 1, orderPools-1), abandon: abandonShare}
}

func (g *orderGen) next() flow {
	pool := orderPoolNames[g.zipf.Uint64()]
	qty := int64(1 + g.r.Intn(5))
	f := flow{
		req: promises.PromiseRequest{
			Predicates: []promises.Predicate{promises.Quantity(pool, qty)},
			Duration:   promiseDuration,
		},
		depth:    1 + g.r.Intn(maxCheckDepth),
		settle:   settlePurchase,
		pool:     pool,
		qty:      qty,
		feasible: true,
	}
	// Draw the abandon coin even at share 0 so watch_fanout replays
	// order_local's pool, quantity and depth choices exactly.
	if g.r.Float64() < g.abandon {
		f.settle = settleAbandon
		f.req.Duration = abandonDuration
	}
	return f
}

// ---- hotel family: property and named views over room instances ----

func roomName(i int) string { return fmt.Sprintf("room-%04d", i) }

// roomCell places room i: 64 rooms per floor, 16 per (floor, view) cell.
func roomCell(i int) (floor, view, slot int) {
	return i/(hotelViews*hotelRoomsPerCell) + 1, (i / hotelRoomsPerCell) % hotelViews, i % hotelRoomsPerCell
}

func roomProps(i int) map[string]promises.Value {
	floor, view, slot := roomCell(i)
	return map[string]promises.Value{
		"floor":   promises.Int(int64(floor)),
		"view":    promises.Str(hotelViewNames[view]),
		"beds":    promises.Int(int64(slot%3 + 1)),
		"smoking": promises.Bool(slot%2 == 1),
	}
}

func roomSoldOut(i int) bool {
	floor, view, _ := roomCell(i)
	return floor == soldOutFloor && view == soldOutView
}

// hotelTemplate is the narrow predicate text of one (floor, view) cell; the
// four shapes select the same 16 rooms through different operators, so the
// engine's index-served and scanned evaluation paths both run.
func hotelTemplate(floor, view int) string {
	v := hotelViewNames[view]
	switch (floor*hotelViews + view) % 4 {
	case 0:
		return fmt.Sprintf("floor = %d and view = '%s'", floor, v)
	case 1:
		return fmt.Sprintf("view = '%s' and floor >= %d and floor <= %d", v, floor, floor)
	case 2:
		return fmt.Sprintf("floor in (%d) and view = '%s'", floor, v)
	default:
		return fmt.Sprintf("view = '%s' and not (floor != %d)", v, floor)
	}
}

// hotelResidentText is the broad predicate of resident i: one of three
// spellings of "any room with this view".
func hotelResidentText(i int) string {
	v := hotelViewNames[i/hotelResidentsView]
	switch i % 3 {
	case 0:
		return fmt.Sprintf("view = '%s'", v)
	case 1:
		return fmt.Sprintf("view in ('%s')", v)
	default:
		return fmt.Sprintf("view = '%s' and floor >= 1", v)
	}
}

type hotelGen struct {
	r         *rand.Rand
	client    int
	templates [hotelFloors * hotelViews]promises.Predicate // parsed once, as a caching client would
	fresh     int
}

func newHotelGen(seed int64, client int) *hotelGen {
	g := &hotelGen{r: clientRand("hotel", seed, client), client: client}
	for f := 1; f <= hotelFloors; f++ {
		for v := 0; v < hotelViews; v++ {
			g.templates[(f-1)*hotelViews+v] = promises.MustProperty(hotelTemplate(f, v))
		}
	}
	return g
}

func (g *hotelGen) next() flow {
	f := flow{
		req:      promises.PromiseRequest{Duration: promiseDuration},
		depth:    1 + g.r.Intn(maxCheckDepth),
		settle:   settleRelease,
		feasible: true,
	}
	kind := g.r.Float64()
	unseen := g.r.Float64() < 0.10
	switch {
	case kind < 0.05: // confined to the sold-out cell: must be rejected
		f.feasible = false
		f.req.Predicates = []promises.Predicate{g.property(soldOutFloor, soldOutView, unseen)}
	case kind < 0.15: // a named room of this client's parity, outside the sold-out cell
		room := g.r.Intn(hotelRooms/numClients)*numClients + g.client
		for roomSoldOut(room) {
			room = g.r.Intn(hotelRooms/numClients)*numClients + g.client
		}
		f.req.Predicates = []promises.Predicate{promises.Named(roomName(room))}
	default:
		floor, view := 1+g.r.Intn(hotelFloors), g.r.Intn(hotelViews)
		for floor == soldOutFloor && view == soldOutView {
			floor, view = 1+g.r.Intn(hotelFloors), g.r.Intn(hotelViews)
		}
		f.req.Predicates = []promises.Predicate{g.property(floor, view, unseen)}
	}
	return f
}

// property returns the cell's cached template, or a text the engine has
// never seen that selects the same rooms.
func (g *hotelGen) property(floor, view int, unseen bool) promises.Predicate {
	if !unseen {
		return g.templates[(floor-1)*hotelViews+view]
	}
	g.fresh++
	return promises.MustProperty(fmt.Sprintf("%s and beds < %d", hotelTemplate(floor, view), 1000+g.fresh*numClients+g.client))
}

// ---- cluster family: pools spread over three ring owners ----

func clusterPoolName(i int) string { return fmt.Sprintf("cpool-%03d", i) }

// clusterOwners groups the cluster pools by the node the ring assigns them.
func clusterOwners() (byNode map[string][]string, owner map[string]string, err error) {
	ring, err := cluster.NewRing(clusterNodeIDs, 0)
	if err != nil {
		return nil, nil, err
	}
	byNode, owner = make(map[string][]string), make(map[string]string)
	for i := 0; i < clusterPools; i++ {
		p := clusterPoolName(i)
		n := ring.Owner(p)
		owner[p] = n
		byNode[n] = append(byNode[n], p)
	}
	for _, id := range clusterNodeIDs {
		if len(byNode[id]) == 0 {
			return nil, nil, fmt.Errorf("ring gives node %s none of the %d pools", id, clusterPools)
		}
	}
	return byNode, owner, nil
}

type clusterGen struct {
	r      *rand.Rand
	byNode map[string][]string
	owner  map[string]string
}

func newClusterGen(seed int64, client int) (*clusterGen, error) {
	byNode, owner, err := clusterOwners()
	if err != nil {
		return nil, err
	}
	return &clusterGen{r: clientRand("cluster", seed, client), byNode: byNode, owner: owner}, nil
}

func (g *clusterGen) next() flow {
	a := clusterPoolName(g.r.Intn(clusterPools))
	preds := []promises.Predicate{promises.Quantity(a, int64(1+g.r.Intn(5)))}
	if g.r.Float64() < 0.25 { // a second pool on another ring owner
		others := make([]string, 0, len(clusterNodeIDs)-1)
		for _, id := range clusterNodeIDs {
			if id != g.owner[a] {
				others = append(others, id)
			}
		}
		pools := g.byNode[others[g.r.Intn(len(others))]]
		preds = append(preds, promises.Quantity(pools[g.r.Intn(len(pools))], int64(1+g.r.Intn(5))))
	}
	return flow{
		req:      promises.PromiseRequest{Predicates: preds, Duration: promiseDuration},
		depth:    1 + g.r.Intn(maxCheckDepth),
		settle:   settleRelease,
		feasible: true,
	}
}
