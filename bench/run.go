package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct {
	Name, Unit, Better string
}

// endToEndDefs are the gated metrics, the same on every workload; they come
// from untraced passes only.
var endToEndDefs = []metricDef{
	{"flows_per_s", "1/s", "higher"},
	{"flow_p50_us", "us", "lower"},
	{"grant_p50_us", "us", "lower"},
	{"check_p50_us", "us", "lower"},
	{"settle_p50_us", "us", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerDefs are the ungated single-layer metrics, printed by traced
// runs; a layer a workload bypasses reports 0.
var perLayerDefs = []metricDef{
	// spans (traced pass)
	{"cluster.self_us_per_flow", "us", "lower"},
	{"cluster.roundtrips_per_flow", "count", "lower"},
	{"transport.client_self_us", "us", "lower"},
	{"transport.wire_us", "us", "lower"},
	{"transport.server_self_us", "us", "lower"},
	{"transport.bytes_per_flow", "B", "lower"},
	{"core.engine_us_grant", "us", "lower"},
	{"core.engine_us_check", "us", "lower"},
	{"core.engine_us_settle", "us", "lower"},
	{"driver.trace_overhead_share", "ratio", "lower"},
	// layer probes
	{"predicate.parse_ns", "ns", "lower"},
	{"predicate.eval_ns", "ns", "lower"},
	{"matching.solve_seeded_us", "us", "lower"},
	{"matching.solve_unseeded_us", "us", "lower"},
	{"protocol.encode_ns", "ns", "lower"},
	{"protocol.decode_ns", "ns", "lower"},
	{"protocol.bytes_per_msg", "B", "lower"},
	{"wal.append_ns", "ns", "lower"},
	{"wal.append_sync_us", "us", "lower"},
	{"txn.commit_ns", "ns", "lower"},
	{"cluster.ring_owner_ns", "ns", "lower"},
	// public counters (untraced window)
	{"core.grants", "count", "higher"},
	{"core.rejections", "count", "lower"},
	{"core.expirations", "count", "lower"},
	{"core.deadlock_retries_per_kflow", "count", "lower"},
	{"core.shard_imbalance", "ratio", "lower"},
	{"core.prefilter_skipped_per_flow", "count", "higher"},
	{"core.execute_p50_us", "us", "lower"},
	{"wal.bytes_per_flow", "B", "lower"},
	{"wal.segments", "count", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"core.events_per_flow", "count", "lower"},
	{"core.events_dropped_share", "ratio", "lower"},
	{"core.event_lag_p50_us", "us", "lower"},
	{"cluster.pending_compensations", "count", "lower"},
	{"driver.quiet_flows_per_s", "1/s", "higher"},
	{"driver.quiet_flow_p50_us", "us", "lower"},
	{"driver.flow_p99_us", "us", "lower"},
	{"driver.flow_p999_us", "us", "lower"},
	{"driver.allocs_per_flow", "count", "lower"},
	{"driver.heap_live_mb", "MB", "lower"},
	{"driver.failed_share", "ratio", "lower"},
}

// An untraced run builds its deployment at least setupRepeats times, and
// keeps building until setupBudget is spent or setupMax builds are done, so
// millisecond set-ups get enough repeats to be steady; setup_s is the
// median build.
const (
	setupRepeats = 5
	setupMax     = 40
	setupBudget  = 2 * time.Second
)

// runSpec says what one measured pass does.
type runSpec struct {
	workload string
	seed     int64
	warm     time.Duration
	measure  time.Duration
	traced   bool
	setups   int
	outDir   string
}

// pass is the outcome of one measured pass over one deployment.
type pass struct {
	spec       runSpec
	win        window
	setupS     []float64
	spans      []span
	attempted  int
	failed     int
	failures   []string
	heapLiveMB float64
	pending    int     // cluster compensations still queued at the end
	eventLags  []int64 // watch_fanout: ns from Event.Time to receipt, measured window
}

// measure deploys the workload, drives it and checks it.
func measure(spec runSpec) (*pass, error) {
	p := &pass{spec: spec}
	var tr *tracer
	if spec.traced {
		tr = newTracer()
	}
	var d *deployment
	setupStart := time.Now()
	for i := 0; i < max(spec.setups, 1) || (spec.setups > 1 && i < setupMax && time.Since(setupStart) < setupBudget); i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("teardown between set-ups: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if d, err = deploy(spec.workload, spec.outDir, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
	}
	defer d.close()

	clients, err := newClients(d, spec.workload, spec.seed, tr)
	if err != nil {
		return nil, err
	}
	if err := prime(d.engine, primeClient, d.pools); err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.ramp()
	}
	phase(clients, spec.warm, false)
	p.win.before = readCounters(d)
	p.win.length = spec.measure
	p.win.recs = phase(clients, spec.measure, true)
	p.win.after = readCounters(d)
	if d.fan != nil {
		p.eventLags = d.fan.lagsBetween(p.win.before.fan, p.win.after.fan)
	}

	v := verify(d, clients, spec.outDir)
	p.attempted, p.failed, p.failures = v.attempted, v.failed, v.failures
	for _, c := range clients {
		p.attempted += c.attempted
		p.failed += c.failed
		p.failures = append(p.failures, c.failures...)
	}
	if pc, ok := d.engine.(interface{ PendingCompensations() int }); ok {
		p.pending = pc.PendingCompensations()
	}
	if p.win.flows() == 0 {
		p.failed++
		p.failures = append(p.failures, "no flow completed in the measured window")
	}

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapLiveMB = float64(m.HeapAlloc) / (1 << 20)
	if tr != nil {
		p.spans = tr.all()
		if err := writeTrace(filepath.Join(spec.outDir, "trace-"+spec.workload+".jsonl"), p.spans); err != nil {
			return nil, err
		}
	}
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return p, nil
}

// endToEnd derives the gated metrics and their sample counts.
func (p *pass) endToEnd() (map[string]metric, map[string]int) {
	w := &p.win
	m := map[string]metric{
		"flows_per_s": {w.flowsPerSecond(), "1/s"},
		"setup_s":     {medianFloat(p.setupS), "s"},
	}
	n := map[string]int{"flows_per_s": w.flowsInside(), "setup_s": len(p.setupS)}
	for name, pick := range map[string]func(*recorder) []sample{
		"flow_p50_us":   func(r *recorder) []sample { return r.flow },
		"grant_p50_us":  func(r *recorder) []sample { return r.grant },
		"check_p50_us":  func(r *recorder) []sample { return r.check },
		"settle_p50_us": func(r *recorder) []sample { return r.settle },
	} {
		v, count := w.p50us(pick)
		m[name], n[name] = metric{v, "us"}, count
	}
	return m, n
}

// perLayer assembles the single-layer metrics: counters and tails from the
// untraced pass ref, span times from the traced pass, probes from the
// workload's inputs.
func perLayer(ref, traced *pass) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = metric{0, d.Unit}
	}
	set := func(name string, v float64) {
		m, ok := out[name]
		if !ok {
			panic("bench: undeclared per-layer metric " + name)
		}
		m.Value = v
		out[name] = m
	}
	workload := ref.spec.workload
	remote := workload == "daemon_durable" || workload == "cluster_span"

	// Spans.
	flows := analyse(traced.spans)
	sum := func(pick func(*flowTrace) int64) []int64 {
		v := make([]int64, len(flows))
		for i := range flows {
			v[i] = pick(&flows[i])
		}
		return v
	}
	if remote && len(flows) > 0 {
		client := usOf(medianInt(sum(func(f *flowTrace) int64 { return f.self[spanDriver] })))
		if workload == "cluster_span" {
			set("cluster.self_us_per_flow", client)
		} else {
			set("transport.client_self_us", client)
		}
		var trips, bytes int64
		for i := range flows {
			trips += int64(flows[i].roundTrips)
			bytes += flows[i].bytes
		}
		if workload == "cluster_span" {
			set("cluster.roundtrips_per_flow", float64(trips)/float64(len(flows)))
		}
		set("transport.bytes_per_flow", float64(bytes)/float64(len(flows)))
		set("transport.wire_us", usOf(medianInt(sum(func(f *flowTrace) int64 { return f.self[spanRT] }))))
		set("transport.server_self_us", usOf(medianInt(sum(func(f *flowTrace) int64 { return f.self[spanServer] }))))
	}
	for k := opKind(0); k < numOpKinds; k++ {
		set("core.engine_us_"+k.String(), usOf(medianInt(sum(func(f *flowTrace) int64 { return f.coreByKind[k] }))))
	}
	if untraced := ref.win.flowsPerSecond(); untraced > 0 {
		set("driver.trace_overhead_share", 1-traced.win.flowsPerSecond()/untraced)
	}

	// Public counters over the untraced window.
	w := &ref.win
	nf := float64(max(w.flows(), 1))
	a, b := w.before.stats, w.after.stats
	set("core.grants", float64(b.Grants-a.Grants))
	set("core.rejections", float64(b.Rejections-a.Rejections))
	set("core.expirations", float64(b.Expirations-a.Expirations))
	set("core.deadlock_retries_per_kflow", 1000*float64(b.DeadlockRetries-a.DeadlockRetries)/nf)
	set("core.shard_imbalance", b.Imbalance)
	set("core.prefilter_skipped_per_flow", float64(b.PrefilterSkipped-a.PrefilterSkipped)/nf)
	set("core.execute_p50_us", usOf(int64(b.Latency.P50)))
	set("wal.bytes_per_flow", float64(w.after.dir.bytes-w.before.dir.bytes)/nf)
	set("wal.segments", float64(w.after.dir.segments))
	set("wal.checkpoints", float64(w.after.dir.checkpoints))
	if workload == "watch_fanout" {
		published := float64(w.after.fan.maxSeq - w.before.fan.maxSeq)
		received := float64(w.after.fan.received - w.before.fan.received)
		set("core.events_per_flow", published/nf)
		if published > 0 {
			set("core.events_dropped_share", 1-received/(published*float64(len(w.after.fan.lagMarks))))
		}
		set("core.event_lag_p50_us", usOf(medianInt(ref.eventLags)))
	}
	set("cluster.pending_compensations", float64(ref.pending))
	pickFlow := func(r *recorder) []sample { return r.flow }
	set("driver.quiet_flows_per_s", w.quietFlowsPerSecond())
	set("driver.quiet_flow_p50_us", w.quietP50us(pickFlow))
	flow := w.durations(pickFlow)
	set("driver.flow_p99_us", usOf(percentile(flow, 0.99)))
	if tailSupported(len(flow), 0.999) {
		set("driver.flow_p999_us", usOf(percentile(flow, 0.999)))
	}
	set("driver.allocs_per_flow", float64(w.after.mallocs-w.before.mallocs)/nf)
	set("driver.heap_live_mb", ref.heapLiveMB)
	set("driver.failed_share", float64(ref.failed+traced.failed)/float64(max(ref.attempted+traced.attempted, 1)))

	// Layer probes, each only where its layer is on the path.
	seed := ref.spec.seed
	switch workload {
	case "hotel_property":
		parse, eval, err := probePredicate(seed)
		if err != nil {
			return nil, err
		}
		set("predicate.parse_ns", parse)
		set("predicate.eval_ns", eval)
		seeded, unseeded, err := probeMatching(seed)
		if err != nil {
			return nil, err
		}
		set("matching.solve_seeded_us", seeded)
		set("matching.solve_unseeded_us", unseeded)
	case "order_local", "watch_fanout":
		ns, err := probeTxn(workload, seed)
		if err != nil {
			return nil, err
		}
		set("txn.commit_ns", ns)
	}
	if remote {
		enc, dec, size, err := probeProtocol(workload, seed)
		if err != nil {
			return nil, err
		}
		set("protocol.encode_ns", enc)
		set("protocol.decode_ns", dec)
		set("protocol.bytes_per_msg", size)
	}
	if workload == "daemon_durable" {
		// A flow commits twice (grant, settle) and each commit logs a shard
		// record and a bus record: a quarter of the flow's bytes is the
		// mean record.
		record := min(max(int(out["wal.bytes_per_flow"].Value/4), 64), 1<<16)
		app, sync, err := probeWAL(ref.spec.outDir, record)
		if err != nil {
			return nil, err
		}
		set("wal.append_ns", app)
		set("wal.append_sync_us", sync)
	}
	if workload == "cluster_span" {
		ns, err := probeRing()
		if err != nil {
			return nil, err
		}
		set("cluster.ring_owner_ns", ns)
	}
	return out, nil
}
