package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/protocol"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/promises"
)

// Layer probes: one goroutine, fixed iteration counts, replaying the
// workload's own generated inputs into a layer's public functions. Each
// returns per-operation cost as the median over probeRounds rounds, so one
// descheduled round does not move the number.
const probeRounds = 5

func medianRound(perRound int, round func()) float64 {
	ns := make([]float64, probeRounds)
	for i := range ns {
		t0 := time.Now()
		round()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(perRound)
	}
	return medianFloat(ns)
}

// probeFlows draws the first n flows of client 0's stream.
func probeFlows(workload string, seed int64, n int) ([]flow, error) {
	g, err := newGenerator(workload, seed, 0)
	if err != nil {
		return nil, err
	}
	out := make([]flow, n)
	for i := range out {
		out[i] = g.next()
	}
	return out, nil
}

// probePredicate times parsing the hotel stream's predicate texts and
// evaluating the 64 cell templates against all 1024 room property maps.
func probePredicate(seed int64) (parseNs, evalNs float64, err error) {
	flows, err := probeFlows("hotel_property", seed, 2048)
	if err != nil {
		return 0, 0, err
	}
	var texts []string
	for _, f := range flows {
		if p := f.req.Predicates[0]; p.View == promises.PropertyView {
			texts = append(texts, p.Source)
		}
	}
	var sink predicate.Expr
	parseNs = medianRound(len(texts), func() {
		for _, t := range texts {
			sink, err = predicate.Parse(t)
		}
	})
	_ = sink
	if err != nil {
		return 0, 0, err
	}
	exprs, envs := hotelExprs(), hotelEnvs()
	matched := 0
	evalNs = medianRound(len(exprs)*len(envs), func() {
		matched = 0
		for _, e := range exprs {
			for _, env := range envs {
				if ok, _ := predicate.Eval(e, env); ok {
					matched++
				}
			}
		}
	})
	if want := len(exprs) * hotelRoomsPerCell; matched != want {
		return 0, 0, fmt.Errorf("predicate probe: %d template×room matches, want %d", matched, want)
	}
	return parseNs, evalNs, nil
}

func hotelExprs() []predicate.Expr {
	var out []predicate.Expr
	for f := 1; f <= hotelFloors; f++ {
		for v := 0; v < hotelViews; v++ {
			out = append(out, predicate.MustParse(hotelTemplate(f, v)))
		}
	}
	return out
}

func hotelEnvs() []predicate.Env {
	out := make([]predicate.Env, hotelRooms)
	for i := range out {
		out[i] = predicate.MapEnv(roomProps(i))
	}
	return out
}

// probeMatching solves the hotel's matching problem at its real size — the
// 768 resident slots plus the 16 slots two clients can hold at once,
// against the 1008 rooms outside the sold-out cell — from nothing, and
// seeded with the residents' assignment so only the 16 new slots pay.
func probeMatching(seed int64) (seededUs, unseededUs float64, err error) {
	flows, err := probeFlows("hotel_property", seed, 512)
	if err != nil {
		return 0, 0, err
	}
	var slots []predicate.Expr
	for i := 0; i < hotelResidents; i++ {
		slots = append(slots, predicate.MustParse(hotelResidentText(i)))
	}
	for _, f := range flows {
		if p := f.req.Predicates[0]; p.View == promises.PropertyView && f.feasible && len(slots) < hotelResidents+numClients*maxCheckDepth {
			slots = append(slots, p.Expr)
		}
	}
	var rooms []predicate.Env
	for i := 0; i < hotelRooms; i++ {
		if !roomSoldOut(i) {
			rooms = append(rooms, predicate.MapEnv(roomProps(i)))
		}
	}
	edges := make([]bool, len(slots)*len(rooms))
	for l, e := range slots {
		for r, env := range rooms {
			edges[l*len(rooms)+r], _ = predicate.Eval(e, env)
		}
	}
	edge := func(l, r int) bool { return edges[l*len(rooms)+r] }

	var assign []int
	ok := true
	unseededNs := medianRound(1, func() {
		a, solved := matching.NewIncremental(len(slots), len(rooms), edge).Solve(nil)
		assign, ok = a, ok && solved
	})
	if !ok {
		return 0, 0, fmt.Errorf("matching probe: the hotel's slots do not all fit (Hall's condition broken)")
	}
	seedAssign := append([]int(nil), assign...)
	for l := hotelResidents; l < len(seedAssign); l++ {
		seedAssign[l] = matching.Unmatched
	}
	seededNs := medianRound(1, func() {
		_, solved := matching.NewIncremental(len(slots), len(rooms), edge).Solve(seedAssign)
		ok = ok && solved
	})
	if !ok {
		return 0, 0, fmt.Errorf("matching probe: seeded solve failed")
	}
	return seededNs / 1e3, unseededNs / 1e3, nil
}

// probeProtocol encodes and decodes the three request envelopes of each of
// the stream's first flows, built the way transport.Client builds them.
func probeProtocol(workload string, seed int64) (encodeNs, decodeNs, bytesPerMsg float64, err error) {
	flows, err := probeFlows(workload, seed, 256)
	if err != nil {
		return 0, 0, 0, err
	}
	var envs []*protocol.Envelope
	for i, f := range flows {
		id := "prm" + strconv.Itoa(i%numShards) + "-" + strconv.Itoa(100000+i)
		grant := &protocol.Envelope{}
		grant.Header.Client = clientName(0)
		grant.Header.Promise = &protocol.PromiseHeader{Requests: []protocol.WireRequest{protocol.RequestToWire(f.req)}}
		check := &protocol.Envelope{}
		check.Header.Client = clientName(0)
		check.Header.Batch = &protocol.BatchRequest{}
		for k := 0; k < f.depth; k++ {
			check.Header.Batch.Checks = append(check.Header.Batch.Checks, protocol.PromiseRef{ID: id})
		}
		settle := &protocol.Envelope{}
		settle.Header.Client = clientName(0)
		settle.Header.Environment = protocol.EnvToWire([]promises.EnvEntry{{PromiseID: id, Release: true}})
		if f.settle == settlePurchase {
			settle.Body.Action = &protocol.WireAction{Name: "adjust-pool", Params: []protocol.Param{
				{Name: "delta", Value: strconv.FormatInt(-f.qty, 10)}, {Name: "pool", Value: f.pool}}}
		}
		envs = append(envs, grant, check, settle)
	}
	wire := make([][]byte, len(envs))
	var buf bytes.Buffer
	encodeNs = medianRound(len(envs), func() {
		for i, e := range envs {
			buf.Reset()
			if e := protocol.Encode(&buf, e); e != nil {
				err = e
			}
			wire[i] = append(wire[i][:0], buf.Bytes()...)
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	total := 0
	for _, w := range wire {
		total += len(w)
	}
	decodeNs = medianRound(len(wire), func() {
		for _, w := range wire {
			if _, e := protocol.Decode(bytes.NewReader(w)); e != nil {
				err = e
			}
		}
	})
	return encodeNs, decodeNs, float64(total) / float64(len(wire)), err
}

// probeWAL appends records of the given size to a log on the same file
// system as the durable node's data directory: unsynced (what the log costs
// by itself) and Append+Sync under SyncAlways (what one acknowledged commit
// waits for; near the unsynced figure when the sandbox's fsync is free).
func probeWAL(workDir string, recordBytes int) (appendNs, appendSyncUs float64, err error) {
	payload := bytes.Repeat([]byte{0xA5}, recordBytes)
	run := func(policy wal.SyncPolicy, n int, sync bool) (float64, error) {
		dir, err := os.MkdirTemp(workDir, "walprobe-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		l, err := wal.OpenLog(dir, wal.Options{Policy: policy})
		if err != nil {
			return 0, err
		}
		ns := medianRound(n, func() {
			for i := 0; i < n && err == nil; i++ {
				if err = l.Append(payload); err == nil && sync {
					err = l.Sync()
				}
			}
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		return ns, err
	}
	if appendNs, err = run(wal.SyncNone, 4000, false); err != nil {
		return 0, 0, err
	}
	syncNs, err := run(wal.SyncAlways, 100, true)
	return appendNs, syncNs / 1e3, err
}

type probeRow struct{ v int64 }

func (r probeRow) CloneRow() txn.Row { return r }

// rowsPerFlowCommit is the number of rows one order commit touches: the
// promise row, the pool's escrow row and the pool row.
const rowsPerFlowCommit = 3

// probeTxn times Begin / k Puts / Commit (with the snapshot publish) on a
// fresh store, keyed by the pools the order stream visits.
func probeTxn(workload string, seed int64) (float64, error) {
	flows, err := probeFlows(workload, seed, 4096)
	if err != nil {
		return 0, err
	}
	store := txn.NewStore()
	tables := [rowsPerFlowCommit]string{"promises", "escrow", "pools"}
	for _, t := range tables {
		if err := store.CreateTable(t); err != nil {
			return 0, err
		}
	}
	ns := medianRound(len(flows), func() {
		for i, f := range flows {
			tx := store.Begin(txn.Block)
			for _, t := range tables {
				if e := tx.Put(t, f.pool, probeRow{int64(i)}); e != nil {
					err = e
				}
			}
			if e := tx.Commit(); e != nil {
				err = e
			}
		}
	})
	return ns, err
}

// probeRing times the consistent-hash owner lookup over the cluster pools.
func probeRing() (float64, error) {
	ring, err := cluster.NewRing(clusterNodeIDs, 0)
	if err != nil {
		return 0, err
	}
	names := make([]string, clusterPools)
	for i := range names {
		names[i] = clusterPoolName(i)
	}
	owners := 0
	ns := medianRound(len(names)*100, func() {
		for k := 0; k < 100; k++ {
			for _, n := range names {
				if ring.Owner(n) != "" {
					owners++
				}
			}
		}
	})
	if owners == 0 {
		return 0, fmt.Errorf("ring probe: no owners")
	}
	return ns, nil
}
