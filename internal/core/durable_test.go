package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/predicate"
	"repro/internal/wal"
)

// durEngine is the surface the durability tests drive — both *Manager and
// *ShardedManager implement it.
type durEngine interface {
	Execute(ctx context.Context, req Request) (*Response, error)
	CheckBatch(ctx context.Context, client string, ids []string) ([]error, error)
	Release(ctx context.Context, client string, ids ...string) error
	Watch(ctx context.Context, opts WatchOptions) (<-chan Event, error)
	Audit() (*AuditReport, error)
	CreatePool(id string, onHand int64, props map[string]predicate.Value) error
	CreateInstance(id string, props map[string]predicate.Value) error
	PoolLevel(pool string) (int64, error)
	Checkpoint() error
	Close() error
}

var durBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func openDur(t *testing.T, dir string, shards int, clk clock.Clock, opts DurabilityOptions) durEngine {
	t.Helper()
	opts.Dir = dir
	if shards > 1 {
		s, err := OpenDurableSharded(ShardedConfig{Shards: shards, Config: Config{Clock: clk}}, opts)
		if err != nil {
			t.Fatalf("OpenDurableSharded: %v", err)
		}
		return s
	}
	m, err := OpenDurable(Config{Clock: clk}, opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return m
}

func openRef(t *testing.T, shards int, clk clock.Clock) durEngine {
	t.Helper()
	if shards > 1 {
		s, err := NewSharded(ShardedConfig{Shards: shards, Config: Config{Clock: clk}})
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		return s
	}
	m, err := New(Config{Clock: clk})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func seedDur(t *testing.T, e durEngine) {
	t.Helper()
	for _, p := range []string{"widgets", "gadgets", "sprockets"} {
		if err := e.CreatePool(p, 40, nil); err != nil {
			t.Fatalf("CreatePool(%s): %v", p, err)
		}
	}
	for i := 0; i < 10; i++ {
		props := map[string]predicate.Value{
			"floor":   predicate.Int(int64(i%5 + 1)),
			"smoking": predicate.Bool(i%2 == 0),
		}
		if err := e.CreateInstance(fmt.Sprintf("room%d", i), props); err != nil {
			t.Fatalf("CreateInstance(room%d): %v", i, err)
		}
	}
}

// drainReplay collects everything a Replay subscription delivers before the
// first live event. Replay happens synchronously inside Watch (into the
// buffered channel), so a non-blocking drain sees the full retained tail.
func drainReplay(t *testing.T, e durEngine, afterSeq uint64) []Event {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := e.Watch(ctx, WatchOptions{Replay: true, AfterSeq: afterSeq, Buffer: 1 << 14})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	var out []Event
	for {
		select {
		case ev := <-ch:
			out = append(out, ev)
		default:
			return out
		}
	}
}

func sameEvent(a, b Event) bool {
	return a.Seq == b.Seq && a.Type == b.Type && a.PromiseID == b.PromiseID &&
		a.Client == b.Client && a.Time.Equal(b.Time) && a.Expires.Equal(b.Expires) &&
		a.Reason == b.Reason
}

// pairHarness drives a durable engine and an in-memory reference through an
// identical deterministic workload, asserting lockstep equivalence.
type pairHarness struct {
	t         *testing.T
	ctx       context.Context
	dur, ref  durEngine
	dClk      *clock.Fake
	rClk      *clock.Fake
	rng       *rand.Rand
	clients   []string
	live      map[string][]string // client -> ids believed live
	all       map[string][]string // client -> every id ever granted
	deadlines map[int64]bool      // UnixNano instants already used as expiries
	opIdx     int
}

func newPair(t *testing.T, dir string, shards int, seed int64) *pairHarness {
	h := &pairHarness{
		t:         t,
		ctx:       context.Background(),
		dClk:      clock.NewFake(durBase),
		rClk:      clock.NewFake(durBase),
		rng:       rand.New(rand.NewSource(seed)),
		clients:   []string{"alice", "bob", "carol"},
		live:      map[string][]string{},
		all:       map[string][]string{},
		deadlines: map[int64]bool{},
	}
	h.dur = openDur(t, dir, shards, h.dClk, DurabilityOptions{CheckpointEvery: -1})
	h.ref = openRef(t, shards, h.rClk)
	seedDur(t, h.dur)
	seedDur(t, h.ref)
	return h
}

// uniqueDur picks a duration whose resulting deadline instant has never been
// used. Unique deadlines keep expiry-alarm firing order — (instant,
// registration) on the fake clock — identical between a recovered engine
// (alarms re-registered in shard order) and the reference (registration in
// grant order).
func (h *pairHarness) uniqueDur() time.Duration {
	d := time.Duration(500+h.opIdx*17) * time.Millisecond
	for {
		at := h.dClk.Now().Add(d).UnixNano()
		if !h.deadlines[at] {
			h.deadlines[at] = true
			return d
		}
		d += time.Millisecond
	}
}

func (h *pairHarness) predicates() []Predicate {
	switch h.rng.Intn(3) {
	case 0:
		pools := []string{"widgets", "gadgets", "sprockets"}
		return []Predicate{Quantity(pools[h.rng.Intn(len(pools))], int64(1+h.rng.Intn(4)))}
	case 1:
		return []Predicate{Named(fmt.Sprintf("room%d", h.rng.Intn(10)))}
	default:
		exprs := []string{"floor >= 2", "floor = 3 and not smoking", "smoking or floor < 3"}
		return []Predicate{MustProperty(exprs[h.rng.Intn(len(exprs))])}
	}
}

func (h *pairHarness) execute(req Request) {
	h.t.Helper()
	ra, ea := h.dur.Execute(h.ctx, req)
	rb, eb := h.ref.Execute(h.ctx, req)
	if (ea != nil) != (eb != nil) {
		h.t.Fatalf("op %d: Execute error divergence: durable=%v reference=%v", h.opIdx, ea, eb)
	}
	if ea != nil {
		return
	}
	if len(ra.Promises) != len(rb.Promises) {
		h.t.Fatalf("op %d: response length divergence: %d vs %d", h.opIdx, len(ra.Promises), len(rb.Promises))
	}
	for i := range ra.Promises {
		pa, pb := ra.Promises[i], rb.Promises[i]
		if pa.Accepted != pb.Accepted || pa.PromiseID != pb.PromiseID || !pa.Expires.Equal(pb.Expires) {
			h.t.Fatalf("op %d: promise response divergence:\n  durable:   %+v\n  reference: %+v", h.opIdx, pa, pb)
		}
		if pa.Accepted {
			h.live[req.Client] = append(h.live[req.Client], pa.PromiseID)
			h.all[req.Client] = append(h.all[req.Client], pa.PromiseID)
		}
	}
}

// step performs one randomized workload operation on both engines.
func (h *pairHarness) step() {
	h.t.Helper()
	c := h.clients[h.rng.Intn(len(h.clients))]
	switch r := h.rng.Intn(100); {
	case r < 45: // grant
		h.execute(Request{Client: c, PromiseRequests: []PromiseRequest{{
			RequestID:  fmt.Sprintf("r%d", h.opIdx),
			Predicates: h.predicates(),
			Duration:   h.uniqueDur(),
		}}})
	case r < 60: // release a (possibly stale) live id
		ids := h.live[c]
		if len(ids) == 0 {
			h.execute(Request{Client: c, PromiseRequests: []PromiseRequest{{
				Predicates: h.predicates(), Duration: h.uniqueDur(),
			}}})
			break
		}
		i := h.rng.Intn(len(ids))
		id := ids[i]
		h.live[c] = append(ids[:i:i], ids[i+1:]...)
		ea := h.dur.Release(h.ctx, c, id)
		eb := h.ref.Release(h.ctx, c, id)
		if sentinelClass(ea) != sentinelClass(eb) {
			h.t.Fatalf("op %d: Release(%s) divergence: durable=%v reference=%v", h.opIdx, id, ea, eb)
		}
	case r < 75: // advance both clocks in lockstep; expiries fire here
		d := time.Duration(40+h.rng.Intn(400)) * time.Millisecond
		h.dClk.Advance(d)
		h.rClk.Advance(d)
	case r < 85: // renewal: release an old id atomically with a new grant
		ids := h.live[c]
		if len(ids) == 0 {
			break
		}
		i := h.rng.Intn(len(ids))
		id := ids[i]
		h.live[c] = append(ids[:i:i], ids[i+1:]...)
		h.execute(Request{Client: c, PromiseRequests: []PromiseRequest{{
			RequestID:  fmt.Sprintf("r%d", h.opIdx),
			Predicates: h.predicates(),
			Duration:   h.uniqueDur(),
			Releases:   []string{id},
		}}})
	default: // multi-predicate atomic request (cross-shard on sharded engines)
		h.execute(Request{Client: c, PromiseRequests: []PromiseRequest{{
			RequestID:  fmt.Sprintf("r%d", h.opIdx),
			Predicates: append(h.predicates(), h.predicates()...),
			Duration:   h.uniqueDur(),
		}}})
	}
	h.opIdx++
}

// kill abandons the durable engine without Close — the moral equivalent of
// SIGKILL for an in-process engine under SyncAlways — and recovers a fresh
// engine from the data directory at the same clock instant.
func (h *pairHarness) kill(dir string, shards int) {
	h.t.Helper()
	h.dClk = clock.NewFake(h.dClk.Now())
	h.dur = openDur(h.t, dir, shards, h.dClk, DurabilityOptions{CheckpointEvery: -1})
}

// assertEquivalent compares every observable: per-promise sentinel classes,
// pool levels, audit health, and the full Watch replay stream.
func (h *pairHarness) assertEquivalent() {
	h.t.Helper()
	for _, c := range h.clients {
		ids := h.all[c]
		if len(ids) == 0 {
			continue
		}
		sa, ea := h.dur.CheckBatch(h.ctx, c, ids)
		sb, eb := h.ref.CheckBatch(h.ctx, c, ids)
		if ea != nil || eb != nil {
			h.t.Fatalf("CheckBatch(%s): durable=%v reference=%v", c, ea, eb)
		}
		for i, id := range ids {
			if ca, cb := sentinelClass(sa[i]), sentinelClass(sb[i]); ca != cb {
				h.t.Errorf("promise %s (client %s): durable=%s reference=%s", id, c, ca, cb)
			}
		}
	}
	for _, p := range []string{"widgets", "gadgets", "sprockets"} {
		la, ea := h.dur.PoolLevel(p)
		lb, eb := h.ref.PoolLevel(p)
		if ea != nil || eb != nil || la != lb {
			h.t.Errorf("PoolLevel(%s): durable=%d(%v) reference=%d(%v)", p, la, ea, lb, eb)
		}
	}
	for name, e := range map[string]durEngine{"durable": h.dur, "reference": h.ref} {
		rep, err := e.Audit()
		if err != nil {
			h.t.Fatalf("Audit (%s): %v", name, err)
		}
		if !rep.Healthy() {
			h.t.Errorf("audit (%s): %s", name, rep)
		}
	}
	eva := drainReplay(h.t, h.dur, 0)
	evb := drainReplay(h.t, h.ref, 0)
	if len(eva) != len(evb) {
		h.t.Fatalf("event stream length divergence: durable=%d reference=%d", len(eva), len(evb))
	}
	for i := range eva {
		if !sameEvent(eva[i], evb[i]) {
			h.t.Errorf("event %d divergence:\n  durable:   %+v\n  reference: %+v", i, eva[i], evb[i])
		}
	}
}

// TestKillRecoverEquivalence is the pinning suite: a randomized workload
// runs in lockstep on a durable engine and an in-memory reference; the
// durable engine is killed at a random commit (with a checkpoint forced at
// another random point, so recovery spans checkpoint + log tail), recovered,
// and the workload continues. At the end every observable — per-promise
// sentinels, pool levels, audit, and the full event stream — must match an
// engine that never died.
func TestKillRecoverEquivalence(t *testing.T) {
	for _, shards := range []int{1, 8} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				dir := t.TempDir()
				h := newPair(t, dir, shards, seed)
				const ops = 120
				killAt := 30 + h.rng.Intn(60)
				ckptAt := h.rng.Intn(killAt)
				for i := 0; i < ops; i++ {
					if i == ckptAt {
						if err := h.dur.Checkpoint(); err != nil {
							t.Fatalf("Checkpoint: %v", err)
						}
					}
					if i == killAt {
						h.kill(dir, shards)
					}
					h.step()
				}
				h.assertEquivalent()
				if err := h.dur.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			})
		}
	}
}

// TestDurableWatchResumeAcrossRestart pins SSE-style resume: a Last-Event-ID
// cursor taken before a kill replays the missed tail after recovery, and
// sequence numbering continues without reuse.
func TestDurableWatchResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(durBase)
	ctx := context.Background()
	e := openDur(t, dir, 1, clk, DurabilityOptions{CheckpointEvery: -1})
	seedDur(t, e)

	grant := func(e durEngine, n int) string {
		t.Helper()
		resp, err := e.Execute(ctx, Request{Client: "alice", PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Quantity("widgets", int64(n))},
			Duration:   time.Minute,
		}}})
		if err != nil || !resp.Promises[0].Accepted {
			t.Fatalf("grant: err=%v resp=%+v", err, resp)
		}
		return resp.Promises[0].PromiseID
	}
	grant(e, 1)
	grant(e, 2)
	id3 := grant(e, 3)

	pre := drainReplay(t, e, 0)
	if len(pre) != 3 {
		t.Fatalf("expected 3 granted events before kill, got %d: %+v", len(pre), pre)
	}
	cursor := pre[1].Seq // subscriber saw the first two events, then died

	// Kill and recover.
	clk = clock.NewFake(clk.Now())
	e = openDur(t, dir, 1, clk, DurabilityOptions{CheckpointEvery: -1})

	resumed := drainReplay(t, e, cursor)
	if len(resumed) != 1 || resumed[0].Seq != pre[2].Seq || resumed[0].PromiseID != id3 {
		t.Fatalf("resume after restart: want exactly event %d for %s, got %+v", pre[2].Seq, id3, resumed)
	}

	id4 := grant(e, 4)
	all := drainReplay(t, e, cursor)
	if len(all) != 2 {
		t.Fatalf("expected replayed + live event, got %+v", all)
	}
	if all[1].PromiseID != id4 || all[1].Seq != pre[2].Seq+1 {
		t.Fatalf("post-restart numbering must continue (want seq %d), got %+v", pre[2].Seq+1, all[1])
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDurableTornTail pins torn-write semantics: a partially written final
// record is discarded on recovery — the interrupted commit is lost, earlier
// commits survive, and the store is consistent.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(durBase)
	ctx := context.Background()
	e := openDur(t, dir, 1, clk, DurabilityOptions{CheckpointEvery: -1})
	if err := e.CreatePool("widgets", 10, nil); err != nil {
		t.Fatal(err)
	}
	grant := func(n int64) string {
		resp, err := e.Execute(ctx, Request{Client: "alice", PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Quantity("widgets", n)},
			Duration:   time.Minute,
		}}})
		if err != nil || !resp.Promises[0].Accepted {
			t.Fatalf("grant: err=%v resp=%+v", err, resp)
		}
		return resp.Promises[0].PromiseID
	}
	id1 := grant(2)
	id2 := grant(3)

	// Abandon the engine and tear the last few bytes off the newest shard
	// log segment — the tail of id2's commit record.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("glob shard log: %v (%d segments)", err, len(segs))
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	e = openDur(t, dir, 1, clock.NewFake(clk.Now()), DurabilityOptions{CheckpointEvery: -1})
	states, err := e.CheckBatch(ctx, "alice", []string{id1, id2})
	if err != nil {
		t.Fatalf("CheckBatch: %v", err)
	}
	if states[0] != nil {
		t.Errorf("promise %s before the torn record must survive, got %v", id1, states[0])
	}
	if !errors.Is(states[1], ErrPromiseNotFound) {
		t.Errorf("promise %s in the torn record must be lost, got %v", id2, states[1])
	}
	rep, err := e.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Healthy() {
		t.Errorf("audit after torn-tail recovery: %s", rep)
	}
	// The engine keeps working after recovering a torn tail.
	grant(1)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDurableUndecodableRecordFails pins the flip side of torn-tail
// tolerance: a record that frames correctly (intact CRC) but does not
// decode is damage recovery must refuse loudly, never skip. (Framing-level
// corruption is the wal package's department: interior segments fail with
// ErrCorrupt, only the final segment's tail may be truncated — see
// internal/wal tests.)
func TestDurableUndecodableRecordFails(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(durBase)
	ctx := context.Background()
	e := openDur(t, dir, 1, clk, DurabilityOptions{CheckpointEvery: -1})
	if err := e.CreatePool("widgets", 10, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(ctx, Request{Client: "alice", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("widgets", 1)},
		Duration:   time.Minute,
	}}}); err != nil {
		t.Fatal(err)
	}
	// Abandon the engine, then append a correctly framed record whose
	// payload is not a walRecord.
	lg, err := wal.OpenLog(filepath.Join(dir, "shard-0"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append([]byte("not a wal record")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(Config{Clock: clock.NewFake(clk.Now())}, DurabilityOptions{Dir: dir}); err == nil {
		t.Fatal("OpenDurable must fail on an undecodable log record")
	}
}

// TestCheckpointCadence pins the automatic checkpointer on a fake clock: one
// checkpoint at open, then one per elapsed interval.
func TestCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(durBase)
	m, err := OpenDurable(Config{Clock: clk}, DurabilityOptions{Dir: dir, CheckpointEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.durable.checkpoints.Load(); got != 1 {
		t.Fatalf("expected the initial recovery checkpoint, got %d", got)
	}
	for i := uint64(2); i <= 4; i++ {
		clk.Advance(61 * time.Second)
		if got := m.durable.checkpoints.Load(); got != i {
			t.Fatalf("after advance %d: expected %d checkpoints, got %d", i-1, i, got)
		}
	}
	// No time passing, no checkpoints.
	if got := m.durable.checkpoints.Load(); got != 4 {
		t.Fatalf("expected 4 checkpoints, got %d", got)
	}
}

// TestCheckpointCadenceDisabled pins that a negative interval disables the
// alarm while manual Checkpoint still works.
func TestCheckpointCadenceDisabled(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(durBase)
	m, err := OpenDurable(Config{Clock: clk}, DurabilityOptions{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	clk.Advance(time.Hour)
	if got := m.durable.checkpoints.Load(); got != 1 {
		t.Fatalf("automatic checkpoints must be disabled, got %d", got)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("manual Checkpoint: %v", err)
	}
	if got := m.durable.checkpoints.Load(); got != 2 {
		t.Fatalf("manual checkpoint not counted, got %d", got)
	}
}

// TestManifestShardMismatch pins that a data directory remembers its shard
// count and refuses an engine of a different shape.
func TestManifestShardMismatch(t *testing.T) {
	dir := t.TempDir()
	e := openDur(t, dir, 4, clock.NewFake(durBase), DurabilityOptions{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(Config{Clock: clock.NewFake(durBase)}, DurabilityOptions{Dir: dir}); err == nil {
		t.Fatal("OpenDurable over a 4-shard directory must fail")
	}
	if _, err := OpenDurableSharded(ShardedConfig{Shards: 2, Config: Config{Clock: clock.NewFake(durBase)}}, DurabilityOptions{Dir: dir}); err == nil {
		t.Fatal("OpenDurableSharded(2) over a 4-shard directory must fail")
	}
	// The matching shape still opens.
	e = openDur(t, dir, 4, clock.NewFake(durBase), DurabilityOptions{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCloseReopen pins the clean-shutdown path: Close checkpoints, a
// reopen recovers everything without log replay, and Close is idempotent.
func TestDurableCloseReopen(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(durBase)
	ctx := context.Background()
	e := openDur(t, dir, 2, clk, DurabilityOptions{})
	seedDur(t, e)
	resp, err := e.Execute(ctx, Request{Client: "alice", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity("widgets", 5), Named("room3")},
		Duration:   time.Hour,
	}}})
	if err != nil || !resp.Promises[0].Accepted {
		t.Fatalf("grant: err=%v resp=%+v", err, resp)
	}
	id := resp.Promises[0].PromiseID
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	e = openDur(t, dir, 2, clock.NewFake(clk.Now()), DurabilityOptions{})
	states, err := e.CheckBatch(ctx, "alice", []string{id})
	if err != nil || states[0] != nil {
		t.Fatalf("promise after clean reopen: err=%v state=%v", err, states[0])
	}
	rep, err := e.Audit()
	if err != nil || !rep.Healthy() {
		t.Fatalf("audit after clean reopen: err=%v report=%s", err, rep)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPromiseRowCodec pins the JSON shape promises take in the log and in
// checkpoints, across all three predicate views.
func TestPromiseRowCodec(t *testing.T) {
	preds := []Predicate{
		Quantity("widgets", 5),
		Named("room3"),
		MustProperty(`floor = 3 and not smoking`),
	}
	now := durBase.Add(17 * time.Minute)
	row := promiseRow{p: Promise{
		ID:         "prm-9",
		Client:     "alice",
		State:      Active,
		Predicates: preds,
		Assigned:   []string{"", "room3", "room5"},
		Expires:    now,
	}}
	blob, err := json.Marshal(&row)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back promiseRow
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.p.ID != row.p.ID || back.p.Client != row.p.Client || back.p.State != row.p.State ||
		!back.p.Expires.Equal(row.p.Expires) {
		t.Fatalf("scalar fields lost: %+v", back.p)
	}
	if len(back.p.Assigned) != 3 || back.p.Assigned[1] != "room3" || back.p.Assigned[2] != "room5" {
		t.Fatalf("assignments lost: %+v", back.p.Assigned)
	}
	if len(back.p.Predicates) != 3 {
		t.Fatalf("predicates lost: %+v", back.p.Predicates)
	}
	for i, p := range back.p.Predicates {
		if p.View != preds[i].View || p.Pool != preds[i].Pool ||
			p.Qty != preds[i].Qty || p.Instance != preds[i].Instance {
			t.Errorf("predicate %d mismatch: %+v vs %+v", i, p, preds[i])
		}
	}
	if back.p.Predicates[2].Expr == nil {
		t.Fatal("property expression not re-parsed")
	}
}
