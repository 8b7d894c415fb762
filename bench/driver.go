package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/promises"
)

// client is one closed-loop caller: it sends its next request only after
// the previous one returned, like the paper's service processes that each
// wait for their reply.
type client struct {
	idx    int
	name   string
	gen    generator
	engine promises.Engine
	tr     *tracer // nil when untraced

	standing []string
	checkIDs []string // scratch for the CheckBatch argument
	nextFlow uint64

	// Kept for the whole life of the client, warm-up included, because the
	// end-of-run checks compare against everything the client ever did.
	attempted, failed int
	failures          []string
	purchased         map[string]int64
	abandoned         []string
	lastAbandon       time.Time
	settled           []string // most recent settled ids, a ring of settledKeep
	grantsOK          int      // accepted grants, standing ones included
	releasesOK        int      // successful settles and drains

	rec *recorder // non-nil while a measured phase runs
}

const settledKeep = 512

// sample is one timed call or flow: when it ended, as an offset into the
// measured phase, and how long it took.
type sample struct{ at, ns int64 }

// recorder holds one client's samples of one measured phase.
type recorder struct {
	start                      time.Time
	grant, check, settle, flow []sample
	done                       []int64 // end offset of every completed flow, abandoned ones included
}

func (r *recorder) add(to *[]sample, ns int64) {
	*to = append(*to, sample{at: int64(time.Since(r.start)), ns: ns})
}

func (c *client) fail(what string, err error) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf("%s %s: %v", c.name, what, err))
	}
}

// op runs one engine call under a deadline and, in a traced measured phase,
// a driver span. It returns the call's wall time.
func (c *client) op(flowID uint64, kind opKind, deadline time.Duration, call func(ctx context.Context) error) (int64, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	end := func(int64) {}
	if c.tr != nil && c.rec != nil {
		ctx, end = c.tr.begin(withSpan(ctx, spanRef{op: opID(flowID, kind)}), spanDriver)
	}
	t0 := time.Now()
	err := call(ctx)
	d := time.Since(t0)
	end(0)
	c.attempted++
	if err != nil {
		c.fail(kind.String(), err)
		return int64(d), false
	}
	if d > deadline {
		c.fail(kind.String(), fmt.Errorf("took %v, over the %v deadline", d, deadline))
		return int64(d), false
	}
	return int64(d), true
}

func (c *client) grant(flowID uint64, deadline time.Duration, req promises.PromiseRequest) (promises.PromiseResponse, int64, bool) {
	var pr promises.PromiseResponse
	d, ok := c.op(flowID, opGrant, deadline, func(ctx context.Context) error {
		resp, err := c.engine.Execute(ctx, promises.Request{Client: c.name, PromiseRequests: []promises.PromiseRequest{req}})
		if err != nil {
			return err
		}
		if len(resp.Promises) != 1 {
			return fmt.Errorf("got %d promise responses, want 1", len(resp.Promises))
		}
		pr = resp.Promises[0]
		return nil
	})
	return pr, d, ok
}

// flow runs one grant → check → settle sample.
func (c *client) flow() {
	f := c.gen.next()
	flowID := c.nextFlow*numClients + uint64(c.idx)
	c.nextFlow++
	start := time.Now()

	pr, d, ok := c.grant(flowID, opDeadline, f.req)
	if !ok {
		return
	}
	if pr.Accepted != f.feasible {
		c.fail("grant", fmt.Errorf("accepted=%v but the generator marked feasible=%v (%s)", pr.Accepted, f.feasible, pr.Reason))
		if pr.Accepted {
			ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
			_ = c.engine.Release(ctx, c.name, pr.PromiseID) // already counted as failed
			cancel()
		}
		return
	}
	if c.rec != nil {
		c.rec.add(&c.rec.grant, d)
	}
	if !pr.Accepted {
		return
	}
	c.grantsOK++
	id := pr.PromiseID

	c.checkIDs = append(append(c.checkIDs[:0], id), c.standing[:f.depth-1]...)
	d, ok = c.op(flowID, opCheck, opDeadline, func(ctx context.Context) error {
		errs, err := c.engine.CheckBatch(ctx, c.name, c.checkIDs)
		if err != nil {
			return err
		}
		for i, e := range errs {
			if e != nil {
				return fmt.Errorf("held promise %s: %w", c.checkIDs[i], e)
			}
		}
		return nil
	})
	if ok && c.rec != nil {
		c.rec.add(&c.rec.check, d)
	}

	switch f.settle {
	case settleAbandon:
		c.abandoned = append(c.abandoned, id)
		c.lastAbandon = time.Now()
		if c.rec != nil {
			c.rec.done = append(c.rec.done, int64(time.Since(c.rec.start)))
		}
		return
	case settlePurchase:
		d, ok = c.op(flowID, opSettle, opDeadline, func(ctx context.Context) error {
			resp, err := c.engine.Execute(ctx, promises.Request{
				Client:       c.name,
				Env:          []promises.EnvEntry{{PromiseID: id, Release: true}},
				ActionName:   "adjust-pool",
				ActionParams: map[string]string{"pool": f.pool, "delta": strconv.FormatInt(-f.qty, 10)},
			})
			if err != nil {
				return err
			}
			return resp.ActionErr
		})
		if ok {
			c.purchased[f.pool] += f.qty
		}
	case settleRelease:
		d, ok = c.op(flowID, opSettle, opDeadline, func(ctx context.Context) error {
			return c.engine.Release(ctx, c.name, id)
		})
	}
	if !ok {
		return
	}
	c.releasesOK++
	if len(c.settled) < settledKeep {
		c.settled = append(c.settled, id)
	} else {
		c.settled[c.releasesOK%settledKeep] = id
	}
	if c.rec != nil {
		c.rec.add(&c.rec.settle, d)
		c.rec.add(&c.rec.flow, int64(time.Since(start)))
		c.rec.done = append(c.rec.done, c.rec.flow[len(c.rec.flow)-1].at)
	}
}

// ramp grants the client's standing promises: the next stream entries that
// are feasible, settle normally and name no instance (a standing named hold
// could collide with a later named request of the same stream).
func (c *client) ramp() {
	for len(c.standing) < standingPerClient {
		f := c.gen.next()
		if !f.feasible || f.settle == settleAbandon || f.req.Predicates[0].View == promises.NamedView {
			continue
		}
		f.req.Duration = standingHold
		// The engine caps a grant at its request's context deadline, so a
		// standing promise is asked for under a deadline as long as its hold.
		pr, _, ok := c.grant(0, standingHold, f.req)
		if !ok {
			return
		}
		if !pr.Accepted {
			c.fail("ramp", fmt.Errorf("standing request rejected: %s", pr.Reason))
			return
		}
		c.grantsOK++
		c.standing = append(c.standing, pr.PromiseID)
	}
}

// prime reserves and releases one unit of every pool, so the engine's
// lazily created per-pool escrow rows all exist before anything is timed —
// the state a long-running node is in. Without it the post-action check,
// which walks those rows, slows down for as long as the Zipf tail keeps
// reaching new pools, and the result depends on how far a run got.
func prime(e promises.Engine, client string, pools []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for len(pools) > 0 {
		n := min(len(pools), 128)
		reqs := make([]promises.PromiseRequest, n)
		for i, p := range pools[:n] {
			reqs[i] = promises.PromiseRequest{Predicates: []promises.Predicate{promises.Quantity(p, 1)}, Duration: promiseDuration}
		}
		resps, err := e.GrantBatch(ctx, client, reqs)
		if err != nil {
			return fmt.Errorf("prime: %w", err)
		}
		ids := make([]string, 0, n)
		for i, r := range resps {
			if !r.Accepted {
				return fmt.Errorf("prime: pool %s refused one unit: %s", pools[i], r.Reason)
			}
			ids = append(ids, r.PromiseID)
		}
		for _, id := range ids {
			if err := e.Release(ctx, client, id); err != nil {
				return fmt.Errorf("prime: %w", err)
			}
		}
		pools = pools[n:]
	}
	return nil
}

// drain hands the standing promises back.
func (c *client) drain() {
	for _, id := range c.standing {
		if _, ok := c.op(0, opSettle, opDeadline, func(ctx context.Context) error { return c.engine.Release(ctx, c.name, id) }); ok {
			c.releasesOK++
		}
	}
	c.standing = nil
}

// phase runs every client closed-loop for d and returns their recorders
// (nil entries when record is false). The engine is quiescent on return.
func phase(clients []*client, d time.Duration, record bool) []*recorder {
	recs := make([]*recorder, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range clients {
		if record {
			recs[i] = &recorder{start: start}
		}
		c.rec = recs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.flow()
			}
			c.rec = nil
		}()
	}
	wg.Wait()
	return recs
}

// counters is a reading of everything the benchmark can see from outside
// the program: the engine's public statistics, the data directory, the
// subscribers and the Go runtime.
type counters struct {
	stats   promises.Stats
	dir     dirUsage
	fan     fanoutCounts
	mallocs uint64
}

func readCounters(d *deployment) counters {
	c := counters{stats: d.engine.Stats(), dir: d.dirUsage()}
	if d.fan != nil {
		d.fan.settle()
		c.fan = d.fan.counts()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs = m.Mallocs
	return c
}

func newClients(d *deployment, workload string, seed int64, tr *tracer) ([]*client, error) {
	clients := make([]*client, numClients)
	for i := range clients {
		g, err := newGenerator(workload, seed, i)
		if err != nil {
			return nil, err
		}
		clients[i] = &client{idx: i, name: clientName(i), gen: g, engine: d.engine, tr: tr, purchased: make(map[string]int64)}
	}
	return clients, nil
}
