package core

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// alarmRecorder is a clock.Alarmer that fires nothing on its own: every
// armed alarm stays pending until it is stopped or the test fires it, and
// the recorder counts the most alarms ever pending at once.
type alarmRecorder struct {
	mu         sync.Mutex
	now        time.Time
	nextID     int
	pending    map[int]recordedAlarm
	maxPending int
	onNow      func() // run by the next Now call, once
}

type recordedAlarm struct {
	at time.Time
	f  func()
}

func newAlarmRecorder() *alarmRecorder {
	return &alarmRecorder{
		now:     time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC),
		pending: make(map[int]recordedAlarm),
	}
}

func (c *alarmRecorder) Now() time.Time {
	c.mu.Lock()
	now, hook := c.now, c.onNow
	c.onNow = nil
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	return now
}

func (c *alarmRecorder) AfterFunc(t time.Time, f func()) (stop func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	c.pending[id] = recordedAlarm{at: t, f: f}
	c.maxPending = max(c.maxPending, len(c.pending))
	return func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
}

func (c *alarmRecorder) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *alarmRecorder) setOnNow(f func()) {
	c.mu.Lock()
	c.onNow = f
	c.mu.Unlock()
}

func (c *alarmRecorder) counts() (pending, maxPending int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending), c.maxPending
}

// takeDue removes every pending alarm whose instant is reached and returns
// their callbacks in instant order, for the test to run.
func (c *alarmRecorder) takeDue() []func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	var due []recordedAlarm
	for id, a := range c.pending {
		if !a.at.After(c.now) {
			due = append(due, a)
			delete(c.pending, id)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	fs := make([]func(), len(due))
	for i, a := range due {
		fs[i] = a.f
	}
	return fs
}

// fireDue runs due alarms on the calling goroutine until none is due (a
// pass may re-arm at an instant already reached).
func (c *alarmRecorder) fireDue() {
	for fs := c.takeDue(); len(fs) > 0; fs = c.takeDue() {
		for _, f := range fs {
			f()
		}
	}
}

// grantOnShard creates a one-unit pool named after base on the shard and
// grants it for d.
func grantOnShard(t *testing.T, s *Manager, base string, shard int, d time.Duration) PromiseResponse {
	t.Helper()
	pool := nameOnShard(t, s, shard, base)
	if err := s.CreatePool(pool, 1, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Execute(bg, Request{Client: "c", PromiseRequests: []PromiseRequest{{
		Predicates: []Predicate{Quantity(pool, 1)}, Duration: d,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.Promises[0]; !pr.Accepted {
		t.Fatalf("grant on shard %d rejected: %s", shard, pr.Reason)
	}
	return resp.Promises[0]
}

// TestOneDeadlineAlarm pins the engine's deadline alarm: one alarm for the
// whole engine whatever the shard count, one deadline pass at a time, and
// no deadline left without a wake-up when it is tracked during a pass.
func TestOneDeadlineAlarm(t *testing.T) {
	n := testShards(4)
	newEngine := func(t *testing.T) (*Manager, *alarmRecorder) {
		rec := newAlarmRecorder()
		s, _ := newShardedT(t, Config{Shards: n, Clock: rec})
		t.Cleanup(func() { _ = s.Close() })
		return s, rec
	}

	t.Run("one alarm pending", func(t *testing.T) {
		s, rec := newEngine(t)
		for i := 0; i < n; i++ {
			grantOnShard(t, s, "p", i, time.Duration(i+1)*time.Minute)
		}
		if pending, _ := rec.counts(); pending != 1 {
			t.Fatalf("%d alarms pending with promises on %d shards, want 1", pending, n)
		}
		// Each minute one shard's promise falls due; the alarm lapses it
		// and re-arms at the next shard's deadline, with no request.
		for i := 1; i <= n; i++ {
			rec.advance(time.Minute)
			rec.fireDue()
			if got := s.Stats().Expirations; got != int64(i) {
				t.Fatalf("after %d min: %d expirations, want %d", i, got, i)
			}
		}
		pending, maxPending := rec.counts()
		if maxPending > 1 {
			t.Fatalf("up to %d alarms pending at once, want at most 1", maxPending)
		}
		if pending != 0 {
			t.Fatalf("%d alarms pending with nothing left to expire", pending)
		}
		mustHealthy(t, s)
	})

	t.Run("one pass at a time", func(t *testing.T) {
		s, rec := newEngine(t)
		for i := 0; i < n; i++ {
			grantOnShard(t, s, "p", i, time.Minute)
		}
		rec.advance(time.Minute)
		fs := rec.takeDue()
		if len(fs) == 0 {
			t.Fatal("no alarm due at the deadline")
		}
		// With shard 0 held, the firing that runs the pass waits for it;
		// every other firing must hand its work to that pass and return.
		sh0 := s.shards[0]
		sh0.mu.Lock()
		returned := make(chan struct{}, 8)
		for g := 0; g < 8; g++ {
			go func() {
				fs[0]()
				returned <- struct{}{}
			}()
		}
		timeout := time.After(5 * time.Second)
		back := 0
	wait:
		for back < 7 {
			select {
			case <-returned:
				back++
			case <-timeout:
				break wait
			}
		}
		if back < 7 {
			t.Errorf("%d of 8 firings returned while a pass waited for shard 0, want 7", back)
		} else {
			select {
			case <-returned:
				t.Errorf("all 8 firings returned while shard 0 was held")
			default:
			}
		}
		sh0.mu.Unlock()
		for ; back < 8; back++ {
			<-returned
		}
		if got := s.Stats().Expirations; got != int64(n) {
			t.Fatalf("%d expirations after the pass, want %d", got, n)
		}
		mustHealthy(t, s)
	})

	t.Run("deadline tracked during a pass", func(t *testing.T) {
		s, rec := newEngine(t)
		grantOnShard(t, s, "early", 0, time.Minute)
		rec.advance(time.Minute)
		// The pass reads the clock first; grant there, on the last shard,
		// while the pass is running.
		var late PromiseResponse
		rec.setOnNow(func() { late = grantOnShard(t, s, "late", n-1, time.Minute) })
		rec.fireDue()
		if late.PromiseID == "" {
			t.Fatal("no grant ran during the pass")
		}
		if got := s.Stats().Expirations; got != 1 {
			t.Fatalf("%d expirations after the first pass, want 1", got)
		}
		rec.advance(time.Minute)
		rec.fireDue()
		if got := s.Stats().Expirations; got != 2 {
			t.Fatalf("promise %s granted during a pass did not lapse at its deadline (%d expirations)", late.PromiseID, got)
		}
		mustHealthy(t, s)
	})
}
