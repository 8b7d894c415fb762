package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/promises"
)

// verdict collects end-of-run check results; every failed check counts in
// the run's failed operations next to the clients' own.
type verdict struct {
	attempted, failed int
	failures          []string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.attempted++
	if ok {
		return
	}
	v.failed++
	if len(v.failures) < 16 {
		v.failures = append(v.failures, "verify: "+fmt.Sprintf(format, args...))
	}
}

func verifyCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// checkUsable requires every id to be usable by its client, or every id to
// be unusable.
func checkUsable(v *verdict, e promises.Engine, client string, ids []string, want bool, what string) {
	ctx, cancel := verifyCtx()
	defer cancel()
	for len(ids) > 0 {
		n := min(len(ids), 256)
		errs, err := e.CheckBatch(ctx, client, ids[:n])
		if err != nil {
			v.check(false, "%s: CheckBatch: %v", what, err)
			return
		}
		for i, e := range errs {
			v.check((e == nil) == want, "%s: promise %s of %s: usable=%v (%v), want usable=%v", what, ids[i], client, e == nil, e, want)
		}
		ids = ids[n:]
	}
}

// verifyDurable copies the data directory while the node is still open,
// with the standing promises acknowledged and unreleased, opens the copy and
// requires it to agree with what was acknowledged under SyncAlways.
func verifyDurable(v *verdict, d *deployment, clients []*client, workDir string) {
	dst, err := os.MkdirTemp(workDir, "copy-")
	if err != nil {
		v.check(false, "durable copy: %v", err)
		return
	}
	defer os.RemoveAll(dst)
	if err := d.copyDataDir(dst); err != nil {
		v.check(false, "durable copy: %v", err)
		return
	}
	e, err := promises.Open(promises.WithShards(numShards), promises.WithDataDir(dst),
		promises.WithSyncPolicy(promises.SyncAlways), promises.WithStandardActions())
	if err != nil {
		v.check(false, "durable copy: Open: %v", err)
		return
	}
	defer e.Close()
	for _, c := range clients {
		checkUsable(v, e, c.name, c.standing, true, "recovered copy, acknowledged and unreleased")
		checkUsable(v, e, c.name, c.settled, false, "recovered copy, released")
	}
	rep, err := e.Audit()
	v.check(err == nil && rep.Healthy(), "recovered copy: audit: %v %v", err, rep)
}

// verify runs the end-of-run correctness checks of the deployment.
func verify(d *deployment, clients []*client, workDir string) *verdict {
	v := &verdict{}

	if d.dataDir != "" {
		verifyDurable(v, d, clients, workDir)
	}

	// Drain: standing promises go back, abandoned ones lapse.
	var lastAbandon time.Time
	for _, c := range clients {
		c.drain()
		if c.lastAbandon.After(lastAbandon) {
			lastAbandon = c.lastAbandon
		}
	}
	if wait := time.Until(lastAbandon.Add(abandonDuration + 100*time.Millisecond)); wait > 0 {
		time.Sleep(wait)
	}
	for _, c := range clients {
		checkUsable(v, d.engine, c.name, c.abandoned, false, "abandoned promise after expiry")
		checkUsable(v, d.engine, c.name, c.settled, false, "settled promise")
	}

	// Only the deployment's own promises remain, and they still hold.
	rep, err := d.engine.Audit()
	v.check(err == nil && rep != nil && rep.Healthy(), "audit: %v %v", err, rep)
	if rep != nil {
		v.check(rep.ActivePromises == d.expectActive, "audit: %d live promises, want %d", rep.ActivePromises, d.expectActive)
	}
	checkUsable(v, d.nodes[0], residentClient, d.residents, true, "resident")

	// Pool conservation, read through the public pool-level action.
	if d.workload != "hotel_property" && d.workload != "cluster_span" {
		bought := make(map[string]int64)
		for _, c := range clients {
			for p, q := range c.purchased {
				bought[p] += q
			}
		}
		ctx, cancel := verifyCtx()
		defer cancel()
		for _, p := range orderPoolNames {
			resp, err := d.engine.Execute(ctx, promises.Request{
				Client: clients[0].name, ActionName: "pool-level", ActionParams: map[string]string{"pool": p}})
			if err == nil {
				err = resp.ActionErr
			}
			if err != nil {
				v.check(false, "pool-level %s: %v", p, err)
				break
			}
			level, _ := resp.ActionResult.(string)
			v.check(level == strconv.FormatInt(poolLevel-bought[p], 10),
				"pool %s holds %s, want %d (2^40 minus %d purchased)", p, level, poolLevel-bought[p], bought[p])
		}
	}
	if d.workload == "cluster_span" {
		// Every cluster settle is a Release, so no pool may have moved.
		byNode, _, err := clusterOwners()
		v.check(err == nil, "cluster owners: %v", err)
		for i, id := range clusterNodeIDs {
			s, err := promises.Seed(d.nodes[i])
			if err != nil {
				v.check(false, "cluster node %s: %v", id, err)
				continue
			}
			for _, p := range byNode[id] {
				level, err := s.PoolLevel(p)
				v.check(err == nil && level == poolLevel, "pool %s on %s holds %d (%v), want %d", p, id, level, err, poolLevel)
			}
		}
		if pc, ok := d.engine.(interface{ PendingCompensations() int }); ok {
			v.check(pc.PendingCompensations() == 0, "%d compensations still pending", pc.PendingCompensations())
		}
	}

	// Subscribers: every event the clients caused was published once, in
	// order; drops show as received < published, never as extra events.
	if d.fan != nil {
		d.fan.settle()
		expected := uint64(2 * len(d.pools)) // priming granted and released every pool once
		for _, c := range clients {
			expected += uint64(c.grantsOK + c.releasesOK + len(c.abandoned))
		}
		for i, s := range d.fan.subs {
			got, last := s.received.Load(), s.lastSeq.Load()
			if s.filtered {
				v.check(got == 0, "filtered subscriber %d received %d events for a client that never acted", i, got)
				continue
			}
			v.check(s.disorder.Load() == 0, "subscriber %d saw %d events out of Seq order", i, s.disorder.Load())
			v.check(got <= expected && last <= expected, "subscriber %d received %d events up to Seq %d, but only %d were caused", i, got, last, expected)
		}
		published := d.fan.counts().maxSeq
		v.check(published == expected, "subscribers saw Seq reach %d, the clients caused %d events", published, expected)
	}
	return v
}
