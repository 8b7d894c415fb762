package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/escrow"
	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/softlock"
	"repro/internal/txn"
)

// This file is the oracle for the incremental §8 post-action check
// (checkAll): a seeded stream of grants, releases, purchases and rogue
// actions drives an engine with the check, and every rogue action also
// runs on a DisablePostCheck twin. Audit, which still scans everything,
// judges both:
//
//   - the checked engine's Audit must be healthy after every operation —
//     an action the check let through that broke a promise or a pool
//     shows up here;
//   - every ErrPromiseViolated the checked engine reports must name a
//     problem the twin's Audit finds after committing the same action — a
//     violation the full scan would not have seen fails here.
//
// Before each rogue action the twin's tables are reset to the checked
// engine's, so the action starts from one state on both sides. The twin
// does not replay the grants: which instance a grant picks depends on the
// order of each engine's in-memory matcher state, which follows the
// engine's own history, so two engines with equal tables need not pick
// alike, and a slot migration on one side would leave the other's
// directory behind. Tables are what both the check and Audit read.

// postCheckTables are every table a shard store holds.
var postCheckTables = []string{
	resource.TablePools, resource.TableInstances, escrow.Table,
	softlock.Table, TablePromises, TablePromisesDone,
}

type pcWorld struct {
	t       *testing.T
	rng     *rand.Rand
	fake    *clock.Fake
	checked *Manager
	twin    *Manager
	pools   []string
	insts   []string
	exprs   []string
	// held lists the promises the checked engine granted and the stream
	// has not settled yet (some may have expired since).
	held []pcHeld
	// violations counts the rogue actions the check rejected, so the test
	// can show the stream exercised it.
	violations int
}

type pcHeld struct {
	client, id string
	preds      []Predicate
}

// pcSpare is a pool no promise ever names: writes to it are the
// "unrelated pool" rogue action.
const pcSpare = "pc-spare"

func newPCWorld(t *testing.T, seed int64, shards int, mode PropertyMode) *pcWorld {
	fake := clock.NewFake(time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC))
	cfg := Config{Shards: shards, Clock: fake, DefaultDuration: time.Hour, PropertyMode: mode}
	checked, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePostCheck = true
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &pcWorld{
		t: t, rng: rand.New(rand.NewSource(seed)), fake: fake,
		checked: checked, twin: twin,
		exprs: []string{"gpu", "not gpu", "tier = 1", "tier >= 1", "zone = 2", "gpu or zone = 1"},
	}
	for _, m := range []*Manager{checked, twin} {
		if err := m.CreatePool(pcSpare, 50, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		pool := fmt.Sprintf("pc-pool-%d", i)
		cap := int64(6 + w.rng.Intn(10))
		for _, m := range []*Manager{checked, twin} {
			if err := m.CreatePool(pool, cap, nil); err != nil {
				t.Fatal(err)
			}
		}
		w.pools = append(w.pools, pool)
	}
	for i := 0; i < 12; i++ {
		inst := fmt.Sprintf("pc-inst-%d", i)
		props := w.randProps()
		for _, m := range []*Manager{checked, twin} {
			if err := m.CreateInstance(inst, props); err != nil {
				t.Fatal(err)
			}
		}
		w.insts = append(w.insts, inst)
	}
	return w
}

func (w *pcWorld) randProps() map[string]predicate.Value {
	return map[string]predicate.Value{
		"gpu":  predicate.Bool(w.rng.Intn(2) == 0),
		"tier": predicate.Int(int64(w.rng.Intn(3))),
		"zone": predicate.Int(int64(w.rng.Intn(3))),
	}
}

func (w *pcWorld) randPredicate() Predicate {
	switch w.rng.Intn(3) {
	case 0:
		return Quantity(w.pools[w.rng.Intn(len(w.pools))], int64(1+w.rng.Intn(4)))
	case 1:
		return Named(w.insts[w.rng.Intn(len(w.insts))])
	default:
		return MustProperty(w.exprs[w.rng.Intn(len(w.exprs))])
	}
}

// exec runs req on m, failing on an engine-level error.
func (w *pcWorld) exec(m *Manager, req Request) *Response {
	w.t.Helper()
	resp, err := m.Execute(bg, req)
	if err != nil {
		w.t.Fatalf("execute: %v", err)
	}
	return resp
}

// grant sends one promise request of 1-3 mixed predicates.
func (w *pcWorld) grant() {
	client := []string{"alice", "bob"}[w.rng.Intn(2)]
	preds := make([]Predicate, 1+w.rng.Intn(3))
	for i := range preds {
		preds[i] = w.randPredicate()
	}
	pc := w.exec(w.checked, Request{Client: client, PromiseRequests: []PromiseRequest{{Predicates: preds}}}).Promises[0]
	if pc.Accepted {
		w.held = append(w.held, pcHeld{client: client, id: pc.PromiseID, preds: preds})
	}
}

// settle hands back a held promise: a plain release, or a purchase that
// consumes the first anonymous predicate's quantity under the promise.
func (w *pcWorld) settle() {
	if len(w.held) == 0 {
		return
	}
	k := w.rng.Intn(len(w.held))
	h := w.held[k]
	w.held = append(w.held[:k], w.held[k+1:]...)
	req := Request{Client: h.client, Env: []EnvEntry{{PromiseID: h.id, Release: true}}}
	for _, p := range h.preds {
		if p.View == AnonymousView && w.rng.Intn(2) == 0 {
			pool, qty := p.Pool, p.Qty
			req.Resources = []string{pool}
			req.Action = func(ac *ActionContext) (any, error) {
				_, err := ac.Resources.AdjustPool(ac.Tx, pool, -qty)
				return nil, err
			}
			break
		}
	}
	rc := w.exec(w.checked, req)
	if c := sentinelClass(rc.ActionErr); c != "usable" && c != "expired" {
		w.t.Fatalf("settle of %s failed: %v", h.id, rc.ActionErr)
	}
}

// rogue runs one action that may break promises behind the manager's back.
// It returns a description for failure messages.
func (w *pcWorld) rogue() string {
	inst := w.insts[w.rng.Intn(len(w.insts))]
	pool := w.pools[w.rng.Intn(len(w.pools))]
	var desc string
	var res string
	var act Action
	switch w.rng.Intn(7) {
	case 0: // drain a pool, possibly below what it has promised
		delta := -int64(1 + w.rng.Intn(6))
		desc, res = fmt.Sprintf("AdjustPool(%s, %d)", pool, delta), pool
		act = func(ac *ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, pool, delta)
			return nil, err
		}
	case 1: // take an instance, held or not
		desc, res = fmt.Sprintf("SetStatus(%s, taken)", inst), inst
		act = func(ac *ActionContext) (any, error) {
			return nil, ac.Resources.SetStatus(ac.Tx, inst, resource.Taken)
		}
	case 2: // rewrite an instance's properties
		props := w.randProps()
		desc, res = fmt.Sprintf("PutInstance(%s, %v)", inst, props), inst
		act = func(ac *ActionContext) (any, error) {
			in, err := ac.Resources.Instance(ac.Tx, inst)
			if err != nil {
				return nil, err
			}
			in.Props = props
			return nil, ac.Resources.PutInstance(ac.Tx, in)
		}
	case 3: // drop an instance's soft lock
		desc, res = fmt.Sprintf("Delete(softlocks, %s)", inst), inst
		act = func(ac *ActionContext) (any, error) {
			return nil, ac.Tx.Delete(softlock.Table, inst)
		}
	case 4: // write a pool no promise names
		delta := int64(w.rng.Intn(11) - 5)
		desc, res = fmt.Sprintf("AdjustPool(%s, %d)", pcSpare, delta), pcSpare
		act = func(ac *ActionContext) (any, error) {
			_, err := ac.Resources.AdjustPool(ac.Tx, pcSpare, delta)
			return nil, err
		}
	case 5: // reserve past the pool behind the ledger's back
		desc, res = fmt.Sprintf("overdraw escrow(%s)", pool), pool
		act = func(ac *ActionContext) (any, error) { return nil, overdrawEscrow(ac, pool) }
	default: // damage a promise row with a named predicate
		id := ""
		for _, h := range w.held {
			for _, p := range h.preds {
				if p.View == NamedView && !isCompositeID(h.id) {
					id = h.id
				}
			}
		}
		if id == "" {
			return ""
		}
		desc = fmt.Sprintf("truncate Assigned of %s", id)
		act = func(ac *ActionContext) (any, error) {
			row, err := ac.Tx.Get(TablePromises, id)
			if err != nil {
				return nil, err
			}
			p := row.(*promiseRow).p
			p.Assigned = nil
			return nil, ac.Tx.Put(TablePromises, id, &promiseRow{p: p})
		}
		// The promise's own shard runs the action.
		sh, _ := w.checked.ownerShard(id)
		for _, in := range w.insts {
			if w.checked.ShardOf(in) == sh {
				res = in
				break
			}
		}
		if res == "" {
			return ""
		}
	}
	req := Request{Client: "rogue", Resources: []string{res}, Action: act}
	w.syncTwin()
	rc, rt := w.exec(w.checked, req), w.exec(w.twin, req)
	switch {
	case sentinelClass(rc.ActionErr) == "violated":
		w.violations++
		if rt.ActionErr != nil {
			w.t.Fatalf("%s: checked engine reports %v; twin failed the action itself: %v", desc, rc.ActionErr, rt.ActionErr)
		}
		w.matchTwinProblem(desc, rc.ActionErr)
	case (rc.ActionErr == nil) != (rt.ActionErr == nil):
		w.t.Fatalf("%s diverged: checked %v, twin %v", desc, rc.ActionErr, rt.ActionErr)
	}
	return desc
}

// overdrawEscrow adds a reservation to pool's escrow row that the pool
// cannot cover, keeping every existing one.
func overdrawEscrow(ac *ActionContext, pool string) error {
	p, err := ac.Resources.Pool(ac.Tx, pool)
	if err != nil {
		return err
	}
	var e struct {
		Pool     string           `json:"pool"`
		Reserved map[string]int64 `json:"reserved"`
	}
	e.Pool, e.Reserved = pool, map[string]int64{}
	if row, err := ac.Tx.Get(escrow.Table, pool); err == nil {
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &e); err != nil {
			return err
		}
	}
	e.Reserved["rogue#0"] += p.OnHand + 1
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	row, err := escrow.DecodeRow(b)
	if err != nil {
		return err
	}
	return ac.Tx.Put(escrow.Table, pool, row)
}

var (
	violatedPromise = regexp.MustCompile(`promise (\S+) predicate (\d+) `)
	violatedPool    = regexp.MustCompile(`pool ("[^"]*") overdrawn`)
	slotProblem     = regexp.MustCompile(`promise \S+ slot \d+: `)
)

// matchTwinProblem asserts the twin's Audit, after committing the action
// the checked engine rejected, reports the problem the violation names.
func (w *pcWorld) matchTwinProblem(desc string, verr error) {
	rep, err := w.twin.Audit()
	if err != nil {
		w.t.Fatal(err)
	}
	// A failed property rematch names no promise: any broken slot will do.
	want, match := "a broken slot", slotProblem.MatchString
	if m := violatedPromise.FindStringSubmatch(verr.Error()); m != nil {
		want = fmt.Sprintf("promise %s slot %s: ", m[1], m[2])
		match = func(p string) bool { return strings.Contains(p, want) }
	} else if m := violatedPool.FindStringSubmatch(verr.Error()); m != nil {
		want = "escrow: escrow: insufficient unreserved quantity: pool " + m[1] + " overdrawn"
		match = func(p string) bool { return strings.Contains(p, want) }
	}
	for _, p := range rep.Problems {
		if match(p) {
			return
		}
	}
	w.t.Fatalf("%s: checked engine reports %v, but the unchecked twin's audit has no %q problem: %s",
		desc, verr, want, rep)
}

// syncTwin resets the twin's tables to the checked engine's, shard by
// shard, writing only the rows that differ.
func (w *pcWorld) syncTwin() {
	for i, src := range w.checked.shards {
		dst := w.twin.shards[i]
		snap := src.store.Snapshot()
		dst.mu.Lock()
		tx := dst.store.Begin(txn.Block)
		for _, tbl := range postCheckTables {
			want := make(map[string]txn.Row)
			if err := snap.Scan(tbl, func(k string, r txn.Row) bool { want[k] = r; return true }); err != nil {
				w.t.Fatal(err)
			}
			have := make(map[string]txn.Row)
			if err := tx.Scan(tbl, func(k string, r txn.Row) bool { have[k] = r; return true }); err != nil {
				w.t.Fatal(err)
			}
			for k := range have {
				if _, ok := want[k]; !ok {
					if err := tx.Delete(tbl, k); err != nil {
						w.t.Fatal(err)
					}
				}
			}
			for k, r := range want {
				if !reflect.DeepEqual(have[k], r) {
					if err := tx.Put(tbl, k, r); err != nil {
						w.t.Fatal(err)
					}
				}
			}
		}
		if err := tx.Commit(); err != nil {
			w.t.Fatal(err)
		}
		dst.mu.Unlock()
	}
}

func (w *pcWorld) auditChecked(step int, op string) {
	rep, err := w.checked.Audit()
	if err != nil {
		w.t.Fatal(err)
	}
	if !rep.Healthy() {
		w.t.Fatalf("step %d (%s): checked engine's audit unhealthy: %s", step, op, rep)
	}
}

func (w *pcWorld) run(steps int) {
	for step := 0; step < steps; step++ {
		var op string
		switch r := w.rng.Intn(10); {
		case r < 4:
			op = "grant"
			w.grant()
		case r < 6:
			op = "settle"
			w.settle()
		case r < 9:
			op = "rogue " + w.rogue()
		default:
			op = "advance"
			w.fake.Advance(time.Duration(1+w.rng.Intn(10)) * time.Minute)
		}
		w.auditChecked(step, op)
		if len(w.held) > 40 {
			w.held = w.held[len(w.held)-30:]
		}
	}
}

// TestPostCheckOracle pins the incremental post-action check against the
// full-scan Audit on randomized streams, in both property-view techniques.
// Dropping any table from checkAll's touched-key switch fails it.
func TestPostCheckOracle(t *testing.T) {
	shards := testShards(4)
	for _, mode := range []PropertyMode{MatchingMode, FirstFitMode} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("mode=%d/seed=%d/shards=%d", mode, seed, shards), func(t *testing.T) {
				w := newPCWorld(t, seed, shards, mode)
				w.run(300)
				if w.violations == 0 {
					t.Fatal("no rogue action was rejected: the stream never exercised the check")
				}
			})
		}
	}
}

// TestShortAssignedRowReportsNotPanics writes a promise row whose Assigned
// slice is shorter than its predicates. The post-action check and Audit
// must report the slot as unassigned; indexing past the slice would panic
// under the shard lock.
func TestShortAssignedRowReportsNotPanics(t *testing.T) {
	m, _ := newManager(t, Config{DefaultDuration: time.Hour})
	seed(t, m, func(tx *txn.Tx) error { return m.only().rm.CreateInstance(tx, "i1", nil) })
	pr := grantOne(t, m, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Named("i1")},
	}}})
	truncate := func(tx *txn.Tx) error {
		row, err := tx.Get(TablePromises, pr.PromiseID)
		if err != nil {
			return err
		}
		p := row.(*promiseRow).p
		p.Assigned = nil
		return tx.Put(TablePromises, p.ID, &promiseRow{p: p})
	}

	resp, err := m.Execute(bg, Request{Client: "rogue", Action: func(ac *ActionContext) (any, error) {
		return nil, truncate(ac.Tx)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.ActionErr, ErrPromiseViolated) || !strings.Contains(resp.ActionErr.Error(), "no assigned instance") {
		t.Fatalf("action truncating Assigned: err = %v, want a violation naming no assigned instance", resp.ActionErr)
	}

	seed(t, m, truncate)
	rep, err := m.Audit()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("promise %s slot 0: no assigned instance", pr.PromiseID)
	if !slices.Contains(rep.Problems, "shard 0: "+want) {
		t.Fatalf("audit of a short Assigned row: %s, want problem %q", rep, want)
	}
}

// TestPurchaseSettleAllocsIndependentOfPoolCount pins a whole purchase
// settle (release plus adjust-pool, its §8 post-action check and snapshot
// publication) at O(rows written): it allocates the same whether the
// engine holds 16 or 1024 primed pools. The post-check reads only the
// pools the action wrote, and a commit copies one snapshot leaf per
// touched row however large the table (internal/txn/snapshot.go).
func TestPurchaseSettleAllocsIndependentOfPoolCount(t *testing.T) {
	settleAllocs := func(pools int) float64 {
		m, _ := newManager(t, Config{Shards: 4, DefaultDuration: time.Hour})
		for i := 0; i < pools; i++ {
			pool := fmt.Sprintf("pool-%d", i)
			if err := m.CreatePool(pool, 1000, nil); err != nil {
				t.Fatal(err)
			}
			// Prime: a grant creates the pool's escrow row, which the
			// release leaves behind.
			pr := grantOne(t, m, requestQuantity("c", pool, 1))
			if err := m.Release(bg, "c", pr.PromiseID); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 50
		ids := make([]string, 0, runs+1)
		for i := 0; i <= runs; i++ {
			ids = append(ids, grantOne(t, m, requestQuantity("c", "pool-0", 1)).PromiseID)
		}
		return testing.AllocsPerRun(runs, func() {
			id := ids[0]
			ids = ids[1:]
			resp, err := m.Execute(bg, Request{
				Client:    "c",
				Env:       []EnvEntry{{PromiseID: id, Release: true}},
				Resources: []string{"pool-0"},
				Action: func(ac *ActionContext) (any, error) {
					_, err := ac.Resources.AdjustPool(ac.Tx, "pool-0", -1)
					return nil, err
				},
			})
			if err != nil || resp.ActionErr != nil {
				t.Fatalf("purchase settle: %v / %v", err, resp.ActionErr)
			}
		})
	}
	small, large := settleAllocs(16), settleAllocs(1024)
	if d := large - small; d > 1 || d < -1 {
		t.Fatalf("a purchase settle allocates %.0f with 16 pools and %.0f with 1024: want equal within 1", small, large)
	}
}
