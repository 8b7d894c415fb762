package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/failpoint"
)

// crashAck is one operation the workload saw acknowledged: the log's size
// when it returned, and what it acknowledged.
type crashAck struct {
	size     int64
	pools    []string // created
	granted  []string // promise ids handed out
	released []string // promise ids released
}

// logBoundaries returns the byte offset of every record boundary in one log
// segment, from 0 to the file's size.
func logBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{0}
	for off := int64(0); off < int64(len(data)); {
		if off+8 > int64(len(data)) {
			t.Fatalf("log %s ends in a torn header at %d", path, off)
		}
		off += 8 + int64(binary.LittleEndian.Uint32(data[off:]))
		bounds = append(bounds, off)
	}
	return bounds
}

// runCrashWorkload drives a short seeded workload on a durable engine with
// automatic checkpoints off, so every record after the initial checkpoint
// lands in one log segment, and returns that segment and the acks. The
// engine is abandoned, not closed: Close would checkpoint the log away.
func runCrashWorkload(t *testing.T, dir string, shards int, seed int64) (string, []crashAck) {
	t.Helper()
	ctx := context.Background()
	clk := clock.NewFake(durBase)
	e := openDur(t, dir, shards, clk, DurabilityOptions{CheckpointEvery: -1})
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("after open: %d log segments (%v), want 1", len(segs), err)
	}
	seg := segs[0]
	var acks []crashAck
	ack := func(a crashAck) {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		a.size = fi.Size()
		acks = append(acks, a)
	}

	pools := []string{"widgets", "gadgets", "sprockets"}
	for _, p := range pools {
		if err := e.CreatePool(p, 12, nil); err != nil {
			t.Fatal(err)
		}
		ack(crashAck{pools: []string{p}})
	}
	for i := 0; i < 4; i++ {
		if err := e.CreateInstance(fmt.Sprintf("room%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var live []string
	pred := func() Predicate {
		if rng.Intn(3) == 0 {
			return Named(fmt.Sprintf("room%d", rng.Intn(4)))
		}
		return Quantity(pools[rng.Intn(len(pools))], int64(1+rng.Intn(3)))
	}
	for op := 0; op < 40; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // grant, composite on a sharded engine half the time
			preds := []Predicate{pred()}
			if r < 2 {
				preds = append(preds, Quantity(pools[2], 1))
			}
			resp, err := e.Execute(ctx, Request{Client: "c", PromiseRequests: []PromiseRequest{{
				Predicates: preds, Duration: time.Duration(1+rng.Intn(4)) * time.Second,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			var a crashAck
			if pr := resp.Promises[0]; pr.Accepted {
				a.granted = []string{pr.PromiseID}
				live = append(live, pr.PromiseID)
			}
			ack(a)
		case r < 8 && len(live) > 0: // release
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			var a crashAck
			if err := e.Release(ctx, "c", id); err == nil {
				a.released = []string{id}
			}
			ack(a)
		default: // time passes; deadlines fire
			clk.Advance(time.Duration(200+rng.Intn(1300)) * time.Millisecond)
			ack(crashAck{})
		}
	}
	return seg, acks
}

// checkCrashState reopens one crash state and checks the oracle's four
// properties against the operations acknowledged at or before cut.
func checkCrashState(t *testing.T, dir string, shards int, acks []crashAck, cut int64) {
	t.Helper()
	// Reopen at the workload's first instant: no deadline is due, so no
	// expiry races the checks.
	e, err := OpenDurable(Config{Shards: shards, Clock: clock.NewFake(durBase)}, DurabilityOptions{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("cut at %d: OpenDurable: %v", cut, err)
	}
	defer e.Close()

	// 1. The recovered state passes the audit.
	rep, err := e.Audit()
	if err != nil || !rep.Healthy() {
		t.Fatalf("cut at %d: audit: %v %s", cut, err, rep)
	}

	// 2. Every operation acknowledged before the cut is there.
	evs := drainReplay(t, e, 0)
	evented := map[string]bool{}
	for _, ev := range evs {
		evented[ev.PromiseID] = true
	}
	issued := map[string]bool{}
	for _, a := range acks {
		if a.size > cut {
			break
		}
		for _, p := range a.pools {
			if _, err := e.PoolLevel(p); err != nil {
				t.Fatalf("cut at %d: acknowledged pool %s: %v", cut, p, err)
			}
		}
		for _, id := range a.granted {
			issued[id] = true
			if _, err := e.PromiseInfo(id); err != nil {
				t.Fatalf("cut at %d: acknowledged grant %s: %v", cut, id, err)
			}
			if !isCompositeID(id) && !evented[id] {
				t.Fatalf("cut at %d: acknowledged grant %s has no event", cut, id)
			}
		}
		for _, id := range a.released {
			if p, err := e.PromiseInfo(id); err != nil || p.State != Released {
				t.Fatalf("cut at %d: acknowledged release of %s: state %v, %v", cut, id, p.State, err)
			}
		}
	}

	// 3. Event Seqs run without a gap, and AfterSeq resumes mid-stream.
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("cut at %d: event %d has Seq %d", cut, i, ev.Seq)
		}
		issued[ev.PromiseID] = true
	}
	mid := uint64(len(evs) / 2)
	if tail := drainReplay(t, e, mid); len(tail) != len(evs)-int(mid) || (len(tail) > 0 && tail[0].Seq != mid+1) {
		t.Fatalf("cut at %d: resume after %d returned %d events, want %d", cut, mid, len(tail), len(evs)-int(mid))
	}

	// 4. The next grants issue fresh ids, and their events continue the
	// Seq numbering.
	next := [][]Predicate{{Quantity("widgets", 1)}, {Quantity("gadgets", 1)}, {Quantity("sprockets", 1)}}
	if shards > 1 {
		next = append(next, []Predicate{Quantity("widgets", 1), Quantity("sprockets", 1)})
	}
	for _, preds := range next {
		resp, err := e.Execute(context.Background(), Request{Client: "n", PromiseRequests: []PromiseRequest{{Predicates: preds}}})
		if err != nil {
			t.Fatalf("cut at %d: next grant: %v", cut, err)
		}
		pr := resp.Promises[0]
		if !pr.Accepted {
			continue // the cut state may hold the pool fully
		}
		if issued[pr.PromiseID] {
			t.Fatalf("cut at %d: next grant reissued %s", cut, pr.PromiseID)
		}
		issued[pr.PromiseID] = true
	}
	for i, ev := range drainReplay(t, e, 0) {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("cut at %d: after the next grants, event %d has Seq %d", cut, i, ev.Seq)
		}
	}
}

// TestPrefixCrashOracle enumerates the crash states of a durable engine's
// log. With one log per data directory, every state a crash can leave is a
// prefix of that log, torn at most in its last record. A short seeded
// workload runs at 1 and 4 shards with automatic checkpoints off; the data
// directory is then copied with its log cut at every record boundary, and
// once in the middle of a record, and each copy is reopened. Every
// reopened state must pass the audit, hold every operation acknowledged
// before the cut, number its events without a gap (with AfterSeq resume
// working), and never issue a promise id again on its next grants.
func TestPrefixCrashOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src := t.TempDir()
			seg, acks := runCrashWorkload(t, src, shards, 11)
			bounds := logBoundaries(t, seg)
			if len(bounds) < 60 {
				t.Fatalf("workload left %d records, want a longer log", len(bounds)-1)
			}
			t.Logf("%d records, %d acknowledged operations", len(bounds)-1, len(acks))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			// crash copies the data directory with the log cut to keep
			// bytes and checks the copy against the acks up to cut.
			crash := func(cut, keep int64) {
				dir := t.TempDir()
				for _, ent := range entries {
					name := ent.Name()
					b := data[:keep]
					if name != filepath.Base(seg) {
						if b, err = os.ReadFile(filepath.Join(src, name)); err != nil {
							t.Fatal(err)
						}
					}
					if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				checkCrashState(t, dir, shards, acks, cut)
			}
			for _, b := range bounds {
				crash(b, b)
			}
			// A torn record is discarded: the state is its boundary's.
			k := len(bounds) / 2
			crash(bounds[k], (bounds[k]+bounds[k+1])/2)
		})
	}
}

// TestSyncOutsideShardLock pins where the log is synced: once per request,
// after its shard locks are released. With every fsync slowed by the
// wal/sync failpoint, a second grant on the same shard commits while the
// first grant's sync has not returned, and neither grant returns before a
// sync covering its records has.
func TestSyncOutsideShardLock(t *testing.T) {
	defer failpoint.Reset()
	ctx := context.Background()
	e := openDur(t, t.TempDir(), testShards(4), clock.NewFake(durBase), DurabilityOptions{CheckpointEvery: -1})
	defer e.Close()
	if err := e.CreatePool("widgets", 10, nil); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	granted, err := e.Watch(wctx, WatchOptions{Types: []EventType{EventGranted}})
	if err != nil {
		t.Fatal(err)
	}
	lg := e.durable.log
	// appendedThrough waits out the publication that delivered the last
	// event (its events record is appended under the bus mutex) and
	// returns how many records the log holds.
	appendedThrough := func() uint64 {
		e.bus.snapshotRing()
		n, _ := lg.Progress()
		return n
	}
	type result struct {
		err    error
		synced uint64
	}
	grant := func(out chan<- result) {
		_, err := degGrant(ctx, e, "alice", "widgets", time.Hour)
		_, synced := lg.Progress()
		out <- result{err, synced}
	}

	if err := failpoint.Arm("wal/sync=sleep(500ms)"); err != nil {
		t.Fatal(err)
	}
	first, second := make(chan result, 1), make(chan result, 1)
	go grant(first)
	<-granted
	firstRecords := appendedThrough()
	go grant(second)
	<-granted
	secondRecords := appendedThrough()
	if _, synced := lg.Progress(); synced >= firstRecords {
		t.Fatalf("the second grant committed only after the first grant's sync returned (synced %d of %d records)", synced, firstRecords)
	}
	for _, c := range []struct {
		name    string
		out     chan result
		records uint64
	}{{"first", first, firstRecords}, {"second", second, secondRecords}} {
		r := <-c.out
		if r.err != nil {
			t.Fatalf("%s grant: %v", c.name, r.err)
		}
		if r.synced < c.records {
			t.Fatalf("%s grant returned with %d records synced, before its %d", c.name, r.synced, c.records)
		}
	}
}
