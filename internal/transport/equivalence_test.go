package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/predicate"
	"repro/internal/service"
)

// This file extends the randomized equivalence programme of
// internal/core/equivalence_test.go across the wire: a local engine and an
// identical engine fronted by a transport.Client over HTTP are driven
// through the same workload, and every grant, release, check and batch must
// come out identically — the executable form of the claim that
// transport.Client is just another Engine. Divergence here means a wire
// encode/decode, fault-mapping or batching bug, since the engines behind
// both faces are the same code.

// wireWorld drives the same workload through a direct engine and a
// client-fronted twin.
type wireWorld struct {
	t      *testing.T
	rng    *rand.Rand
	fake   *clock.Fake
	local  *core.ShardedManager // driven directly
	remote *core.ShardedManager // fronted by client; only swept/seeded directly
	client *Client
	pools  []string
	insts  []string
	exprs  []string
	pairs  []wirePair
}

type wirePair struct {
	client   string
	localID  string
	remoteID string
}

func sentinelClass(err error) string {
	switch {
	case err == nil:
		return "usable"
	case errors.Is(err, core.ErrPromiseNotFound):
		return "not-found"
	case errors.Is(err, core.ErrPromiseReleased):
		return "released"
	case errors.Is(err, core.ErrPromiseExpired):
		return "expired"
	case errors.Is(err, core.ErrPromiseViolated):
		return "violated"
	case errors.Is(err, core.ErrBadRequest):
		return "bad-request"
	default:
		return "error: " + err.Error()
	}
}

func newWireWorld(t *testing.T, seed int64) *wireWorld {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	mk := func() *core.ShardedManager {
		s, err := core.NewSharded(core.ShardedConfig{
			Shards: 4,
			Config: core.Config{
				Clock:           fake,
				DefaultDuration: time.Hour,
				Actions:         reg,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	w := &wireWorld{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		fake:   fake,
		local:  mk(),
		remote: mk(),
		exprs: []string{
			"gpu", "not gpu", "tier = 1", "tier >= 1",
			"zone = 2", "gpu and tier >= 1", "tier = 2 or zone = 1",
		},
	}
	srv := httptest.NewServer(NewServer(w.remote, reg).Handler())
	t.Cleanup(srv.Close)
	w.client = &Client{BaseURL: srv.URL}

	for i := 0; i < 4; i++ {
		pool := fmt.Sprintf("wire-pool-%d", i)
		cap := int64(6 + w.rng.Intn(10))
		for _, s := range []*core.ShardedManager{w.local, w.remote} {
			if err := s.CreatePool(pool, cap, nil); err != nil {
				t.Fatal(err)
			}
		}
		w.pools = append(w.pools, pool)
	}
	for i := 0; i < 12; i++ {
		inst := fmt.Sprintf("wire-inst-%d", i)
		props := map[string]predicate.Value{
			"gpu":  predicate.Bool(w.rng.Intn(2) == 0),
			"tier": predicate.Int(int64(w.rng.Intn(3))),
			"zone": predicate.Int(int64(w.rng.Intn(4))),
		}
		for _, s := range []*core.ShardedManager{w.local, w.remote} {
			if err := s.CreateInstance(inst, props); err != nil {
				t.Fatal(err)
			}
		}
		w.insts = append(w.insts, inst)
	}
	return w
}

func (w *wireWorld) randPredicate() core.Predicate {
	switch w.rng.Intn(5) {
	case 0, 1:
		return core.Quantity(w.pools[w.rng.Intn(len(w.pools))], int64(1+w.rng.Intn(4)))
	case 2:
		return core.Named(w.insts[w.rng.Intn(len(w.insts))])
	default:
		return core.MustProperty(w.exprs[w.rng.Intn(len(w.exprs))])
	}
}

var wireClients = []string{"alice", "bob"}

// grant sends the same message through both faces and asserts identical
// accept/reject and rejection reasons.
func (w *wireWorld) grant() {
	t := w.t
	client := wireClients[w.rng.Intn(len(wireClients))]
	nPred := 1 + w.rng.Intn(3)
	preds := make([]core.Predicate, nPred)
	for p := range preds {
		preds[p] = w.randPredicate()
	}
	var relL, relR []string
	if owned := w.clientPairs(client); len(owned) > 0 && w.rng.Intn(4) == 0 {
		pick := w.pairs[owned[w.rng.Intn(len(owned))]]
		relL, relR = []string{pick.localID}, []string{pick.remoteID}
	}
	var dur time.Duration
	if w.rng.Intn(5) == 0 {
		dur = time.Duration(1+w.rng.Intn(3)) * time.Minute
	}
	respL, errL := w.local.Execute(bg, core.Request{Client: client, PromiseRequests: []core.PromiseRequest{
		{Predicates: preds, Releases: relL, Duration: dur},
	}})
	respR, errR := w.client.Execute(bg, core.Request{Client: client, PromiseRequests: []core.PromiseRequest{
		{Predicates: preds, Releases: relR, Duration: dur},
	}})
	if errL != nil || errR != nil {
		t.Fatalf("execute errors: local=%v wire=%v", errL, errR)
	}
	pl, pr := respL.Promises[0], respR.Promises[0]
	if pl.Accepted != pr.Accepted {
		t.Fatalf("grant diverged: local=%v (%s) wire=%v (%s)\npredicates: %v",
			pl.Accepted, pl.Reason, pr.Accepted, pr.Reason, preds)
	}
	if !pl.Accepted && pl.Reason != pr.Reason {
		t.Fatalf("rejection reasons diverged:\nlocal: %s\nwire:  %s", pl.Reason, pr.Reason)
	}
	if len(pl.Counter) != len(pr.Counter) {
		t.Fatalf("counter-offers diverged: local=%v wire=%v", pl.Counter, pr.Counter)
	}
	if pl.Accepted {
		w.pairs = append(w.pairs, wirePair{client: client, localID: pl.PromiseID, remoteID: pr.PromiseID})
	}
}

func (w *wireWorld) clientPairs(client string) []int {
	var out []int
	for i, p := range w.pairs {
		if p.client == client {
			out = append(out, i)
		}
	}
	return out
}

// release hands back one tracked pair through both faces (Engine.Release on
// each) and asserts the same sentinel.
func (w *wireWorld) release() {
	if len(w.pairs) == 0 {
		return
	}
	pick := w.pairs[w.rng.Intn(len(w.pairs))]
	errL := w.local.Release(bg, pick.client, pick.localID)
	errR := w.client.Release(bg, pick.client, pick.remoteID)
	if cl, cr := sentinelClass(errL), sentinelClass(errR); cl != cr {
		w.t.Fatalf("release of (%s, %s) diverged: local=%s wire=%s", pick.localID, pick.remoteID, cl, cr)
	}
}

// batch runs a mixed batch — grants plus checks — through GrantBatch /
// CheckBatch on both faces.
func (w *wireWorld) batch() {
	t := w.t
	client := wireClients[w.rng.Intn(len(wireClients))]
	perm := w.rng.Perm(len(w.pools))
	n := 2 + w.rng.Intn(2)
	var reqs []core.PromiseRequest
	for k := 0; k < n; k++ {
		reqs = append(reqs, core.PromiseRequest{
			Predicates: []core.Predicate{core.Quantity(w.pools[perm[k]], int64(1+w.rng.Intn(3)))},
		})
	}
	respL, errL := w.local.GrantBatch(bg, client, reqs)
	respR, errR := w.client.GrantBatch(bg, client, reqs)
	if errL != nil || errR != nil {
		t.Fatalf("batch errors: local=%v wire=%v", errL, errR)
	}
	for i := range respL {
		if respL[i].Accepted != respR[i].Accepted {
			t.Fatalf("batch request %d diverged: local=%v (%s) wire=%v (%s)",
				i, respL[i].Accepted, respL[i].Reason, respR[i].Accepted, respR[i].Reason)
		}
		if respL[i].Accepted {
			w.pairs = append(w.pairs, wirePair{client: client, localID: respL[i].PromiseID, remoteID: respR[i].PromiseID})
		}
	}
}

// action runs the same named action through both faces under a tracked
// pair's environment.
func (w *wireWorld) action() {
	t := w.t
	if len(w.pairs) == 0 {
		return
	}
	pick := w.pairs[w.rng.Intn(len(w.pairs))]
	pool := w.pools[w.rng.Intn(len(w.pools))]
	respL, errL := w.local.Execute(bg, core.Request{
		Client:       pick.client,
		Env:          []core.EnvEntry{{PromiseID: pick.localID}},
		ActionName:   "pool-level",
		ActionParams: map[string]string{"pool": pool},
	})
	respR, errR := w.client.Execute(bg, core.Request{
		Client:       pick.client,
		Env:          []core.EnvEntry{{PromiseID: pick.remoteID}},
		ActionName:   "pool-level",
		ActionParams: map[string]string{"pool": pool},
	})
	if errL != nil || errR != nil {
		t.Fatalf("action errors: local=%v wire=%v", errL, errR)
	}
	if cl, cr := sentinelClass(respL.ActionErr), sentinelClass(respR.ActionErr); cl != cr {
		t.Fatalf("action outcome diverged: local=%s wire=%s", cl, cr)
	}
	if respL.ActionErr == nil && respL.ActionResult != respR.ActionResult {
		t.Fatalf("pool-level diverged: local=%v wire=%v", respL.ActionResult, respR.ActionResult)
	}
}

// advance moves the shared clock and sweeps both engines.
func (w *wireWorld) advance() {
	w.fake.Advance(time.Duration(30+w.rng.Intn(90)) * time.Second)
	if err := w.local.Sweep(); err != nil {
		w.t.Fatal(err)
	}
	if err := w.remote.Sweep(); err != nil {
		w.t.Fatal(err)
	}
}

// verify cross-checks every tracked pair's sentinel through CheckBatch on
// both faces.
func (w *wireWorld) verify() {
	t := w.t
	byClient := make(map[string][]int)
	for i, p := range w.pairs {
		byClient[p.client] = append(byClient[p.client], i)
	}
	for client, idxs := range byClient {
		lIDs := make([]string, len(idxs))
		rIDs := make([]string, len(idxs))
		for k, i := range idxs {
			lIDs[k] = w.pairs[i].localID
			rIDs[k] = w.pairs[i].remoteID
		}
		errsL, err := w.local.CheckBatch(bg, client, lIDs)
		if err != nil {
			t.Fatal(err)
		}
		errsR, err := w.client.CheckBatch(bg, client, rIDs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range idxs {
			cl, cr := sentinelClass(errsL[k]), sentinelClass(errsR[k])
			if cl != cr {
				t.Fatalf("pair (%s, %s) diverged: local=%s wire=%s", lIDs[k], rIDs[k], cl, cr)
			}
		}
	}
}

func (w *wireWorld) run(iters int) {
	for it := 0; it < iters; it++ {
		switch w.rng.Intn(10) {
		case 0, 1, 2, 3:
			w.grant()
		case 4, 5:
			w.release()
		case 6:
			w.batch()
		case 7:
			w.action()
		case 8:
			w.advance()
		default:
			w.verify()
		}
		if len(w.pairs) > 48 {
			w.pairs = w.pairs[len(w.pairs)-32:]
		}
	}
	w.verify()
	for _, s := range []*core.ShardedManager{w.local, w.remote} {
		rep, err := s.Audit()
		if err != nil {
			w.t.Fatal(err)
		}
		if !rep.Healthy() {
			w.t.Fatalf("audit unhealthy: %s", rep)
		}
	}
	// The remote engine's audit is also reachable through the client face.
	rep, err := w.client.Audit()
	if err != nil {
		w.t.Fatal(err)
	}
	if !rep.Healthy() {
		w.t.Fatalf("client-face audit unhealthy: %s", rep)
	}
}

// TestWireEquivalence is the acceptance gate for the unified Engine
// surface's remote face: transport.Client must accept and reject exactly
// like the in-process engine it fronts, across randomized workloads.
func TestWireEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			newWireWorld(t, seed).run(150)
		})
	}
}
