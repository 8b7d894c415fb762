package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/predicate"
	"repro/promises"
)

// The op stream is a function of the seed alone: these digests of the first
// 2000 flows per client change only when a generator changes, which is a
// change of the benchmark and needs fresh baselines.
var pinnedStreams = map[string]string{
	"order_local":    "a43e8b235c02f0812a95b419e5ed747c4c3129358689d91533ce18add9ce7d1f",
	"hotel_property": "aff3e00704514690ce6a9bfc9ea13f720d61cf2342418a7617a1b689f03b2cbe",
	"daemon_durable": "a43e8b235c02f0812a95b419e5ed747c4c3129358689d91533ce18add9ce7d1f",
	"cluster_span":   "44742c0489b42b06486a213084ba7faf206fdeb58dedd108110f514393ee913c",
	"watch_fanout":   "743aacaa4727fa1e4f04ed93c121834b4183fcdff2c8705faeaf7e76661e2120",
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, err := streamHash(w, 1, 2000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamHash(w, 1, 2000)
		c, _ := streamHash(w, 2, 2000)
		if a != b {
			t.Errorf("%s: the same seed gave two different streams", w)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w)
		}
		if a != pinnedStreams[w] {
			t.Errorf("%s: stream digest for seed 1 is\n%q, pinned\n%q", w, a, pinnedStreams[w])
		}
	}
	order, _ := streamHash("order_local", 7, 500)
	durable, _ := streamHash("daemon_durable", 7, 500)
	if order != durable {
		t.Error("daemon_durable must replay order_local's op stream")
	}
}

// TestWatchFanoutReplaysOrderChoices: watch_fanout differs from order_local
// only in never abandoning.
func TestWatchFanoutReplaysOrderChoices(t *testing.T) {
	a, _ := newGenerator("order_local", 3, 0)
	b, _ := newGenerator("watch_fanout", 3, 0)
	for i := 0; i < 2000; i++ {
		fa, fb := a.next(), b.next()
		if fb.settle != settlePurchase {
			t.Fatalf("flow %d: watch_fanout settles by %v", i, fb.settle)
		}
		if fa.pool != fb.pool || fa.qty != fb.qty || fa.depth != fb.depth {
			t.Fatalf("flow %d: order %+v, fanout %+v", i, fa, fb)
		}
	}
}

// TestHotelFeasibility checks the premises of the Hall-condition argument in
// README.md: every narrow text selects exactly one 16-room cell, every
// resident text exactly one 256-room view, the sold-out cell is the only
// infeasible target, and named rooms never collide across clients.
func TestHotelFeasibility(t *testing.T) {
	envs := hotelEnvs()
	first := 0 // index of the first room the last counted text matched
	count := func(src string) (n int, views map[string]bool) {
		e, err := predicate.Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		views = make(map[string]bool)
		for i, env := range envs {
			if ok, err := predicate.Eval(e, env); err != nil {
				t.Fatalf("%q on room %d: %v", src, i, err)
			} else if ok {
				if n == 0 {
					first = i
				}
				n++
				_, v, _ := roomCell(i)
				views[hotelViewNames[v]] = true
			}
		}
		return n, views
	}
	for i := 0; i < hotelResidents; i++ {
		if n, views := count(hotelResidentText(i)); n != hotelFloors*hotelRoomsPerCell || len(views) != 1 {
			t.Fatalf("resident %d (%s) matches %d rooms in %d views", i, hotelResidentText(i), n, len(views))
		}
	}
	if held := numClients * maxCheckDepth; held > hotelRoomsPerCell {
		t.Fatalf("clients can hold %d promises at once, more than the %d rooms of a cell", held, hotelRoomsPerCell)
	}
	if hotelResidentsView+numClients*maxCheckDepth > hotelFloors*hotelRoomsPerCell-hotelRoomsPerCell {
		t.Fatal("residents plus client holds exceed the rooms of the view that contains the sold-out cell")
	}
	for c := 0; c < numClients; c++ {
		g := newHotelGen(1, c)
		infeasible := 0
		for i := 0; i < 4000; i++ {
			f := g.next()
			p := f.req.Predicates[0]
			switch p.View {
			case promises.NamedView:
				var room int
				if _, err := fmt.Sscanf(p.Instance, "room-%d", &room); err != nil {
					t.Fatal(err)
				}
				if room%numClients != c || roomSoldOut(room) || !f.feasible {
					t.Fatalf("client %d named %s (feasible=%v)", c, p.Instance, f.feasible)
				}
			case promises.PropertyView:
				n, views := count(p.Source)
				if n != hotelRoomsPerCell || len(views) != 1 {
					t.Fatalf("%q matches %d rooms in %d views", p.Source, n, len(views))
				}
				soldOut := roomSoldOut(first)
				if f.feasible == soldOut {
					t.Fatalf("%q: feasible=%v, sold-out cell=%v", p.Source, f.feasible, soldOut)
				}
				if !f.feasible {
					infeasible++
				}
			}
		}
		if infeasible < 100 || infeasible > 300 {
			t.Errorf("client %d: %d of 4000 flows infeasible, want about 5%%", c, infeasible)
		}
	}
}

func TestPercentiles(t *testing.T) {
	var v []int64
	for i := int64(1); i <= 1000; i++ {
		v = append(v, i)
	}
	for q, want := range map[float64]int64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing must be 0")
	}
	// Ten samples beyond: p99 needs 1000 samples, p999 needs 10000.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {9999, 0.999, false}, {10000, 0.999, true}, {0, 0.5, false}} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v (beyond: %d)", c.n, c.q, got, c.want, samplesBeyond(c.n, c.q))
		}
	}
	if m := medianFloat([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("medianFloat = %v, want 2.5", m)
	}
}

// TestSelfTime: a synthetic flow, one driver span per op.
//
//	grant  driver [0,100] ─ rt [10,60] ─ server [20,50] ─ core [25,45]
//	                      └ rt [40,90] (overlaps the first round trip by 20)
//	check  driver [200,230] ─ core [205,225]
//	settle driver [300,400] (no children)
func TestSelfTime(t *testing.T) {
	op := func(k opKind) uint64 { return opID(7, k) }
	spans := []span{
		{ID: 1, Op: op(opGrant), Name: spanDriver, Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: op(opGrant), Name: spanRT, Start: 10, End: 60, Bytes: 300},
		{ID: 3, Parent: 2, Op: op(opGrant), Name: spanServer, Start: 20, End: 50},
		{ID: 4, Parent: 3, Op: op(opGrant), Name: spanCore, Start: 25, End: 45},
		{ID: 5, Parent: 1, Op: op(opGrant), Name: spanRT, Start: 40, End: 90, Bytes: 200},
		{ID: 6, Op: op(opCheck), Name: spanDriver, Start: 200, End: 230},
		{ID: 7, Parent: 6, Op: op(opCheck), Name: spanCore, Start: 205, End: 225},
		{ID: 8, Op: op(opSettle), Name: spanDriver, Start: 300, End: 400},
		// A second flow with only two ops (abandoned): must not be counted.
		{ID: 9, Op: opID(8, opGrant), Name: spanDriver, Start: 0, End: 10},
		{ID: 10, Op: opID(8, opCheck), Name: spanDriver, Start: 10, End: 20},
	}
	if got := selfTime(spans[0], []span{spans[1], spans[4]}); got != 20 {
		t.Errorf("driver self = %d, want 20 (100 minus the union [10,90])", got)
	}
	flows := analyse(spans)
	if len(flows) != 1 {
		t.Fatalf("analyse kept %d flows, want 1", len(flows))
	}
	f := flows[0]
	want := map[string]int64{
		spanDriver: 20 + 10 + 100, // grant 100−80, check 30−20, settle 100
		spanRT:     (50 - 30) + 50,
		spanServer: 30 - 20,
		spanCore:   20 + 20,
	}
	for name, w := range want {
		if f.self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, f.self[name], w)
		}
	}
	if f.roundTrips != 2 || f.bytes != 500 {
		t.Errorf("round trips %d bytes %d, want 2 and 500", f.roundTrips, f.bytes)
	}
	if f.coreByKind != [numOpKinds]int64{20, 20, 0} {
		t.Errorf("core by kind = %v", f.coreByKind)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkFile keeps BENCHMARK.json, the program's metric tables and
// the contract's limits in step.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 10 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10..60", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why != workloadWhy[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %q, the program says %q", w.Name, w.Why, workloadWhy[w.Name])
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d is %+v, the program says %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %q / unit %q outside the allowed characters", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must carry the largest bound (has %v, largest %v)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics, want %d", len(bf.PerLayer), len(perLayerDefs))
	}
	seen := make(map[string]bool)
	for i, m := range bf.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d is %+v, the program says %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q / unit %q: bad characters or used twice", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	runs := 4 + 22*len(bf.Workloads)
	if perRun := 3420 / runs; bf.RunSeconds+12 > perRun {
		t.Errorf("%d runs of %d s leave under 12 s each for build, set-up, warm-up and checks inside 3420 s", runs, bf.RunSeconds)
	}
}

// TestSmoke makes both runs of every workload at one second each, the way
// -smoke does; nothing may fail and every declared metric must come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives all five deployments")
	}
	out := t.TempDir()
	for _, w := range workloadNames {
		e := runWorkload(w, 1, time.Second, false, out)
		l := runWorkload(w, 1, time.Second, true, out)
		for _, r := range []runRecord{e, l} {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (trace=%d): %d of %d operations failed: %v", w, r.Trace, r.Failed, r.Attempted, r.Failures)
			}
		}
		if len(e.Metrics) != len(endToEndDefs) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w, len(e.Metrics), len(endToEndDefs))
		}
		for _, d := range endToEndDefs {
			if e.Metrics[d.Name].Value <= 0 || e.Samples[d.Name] == 0 {
				t.Errorf("%s: %s = %v over %d samples", w, d.Name, e.Metrics[d.Name].Value, e.Samples[d.Name])
			}
		}
		if len(l.Metrics) != len(perLayerDefs) {
			t.Errorf("%s: %d per-layer metrics, want %d", w, len(l.Metrics), len(perLayerDefs))
		}
		for _, name := range []string{"core.engine_us_grant", "core.engine_us_check", "core.engine_us_settle", "core.grants",
			"driver.flow_p99_us", "driver.quiet_flows_per_s", "driver.quiet_flow_p50_us"} {
			if l.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v", w, name, l.Metrics[name].Value)
			}
		}
		if st, err := os.Stat(filepath.Join(out, "trace-"+w+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file missing or empty (%v)", w, err)
		}
	}
	// Every run left its record, and the records compare clean with themselves.
	runs, err := loadRuns(filepath.Join(out, "runs.jsonl"))
	if err != nil || len(runs) != 2*len(workloadNames) {
		t.Fatalf("runs.jsonl holds %d records (%v), want %d", len(runs), err, 2*len(workloadNames))
	}
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := compareRuns(&buf, runs, runs, bf); code != 0 {
		t.Errorf("a set of runs against itself: exit %d\n%s", code, buf.String())
	}
}

func TestCompare(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	// mk is a set of untraced runs with the given flow medians plus one
	// traced run; every other end-to-end metric reads 100.
	mk := func(failed int, flowUs ...float64) []runRecord {
		var runs []runRecord
		for _, v := range flowUs {
			m := make(map[string]metric)
			for _, d := range endToEndDefs {
				m[d.Name] = metric{100, d.Unit}
			}
			m["flow_p50_us"] = metric{v, "us"}
			runs = append(runs, runRecord{Workload: "order_local", Attempted: 1000, Failed: failed, Metrics: m})
		}
		return append(runs, runRecord{Workload: "order_local", Trace: 1, Attempted: 1000, Metrics: map[string]metric{"core.grants": {5, "count"}}})
	}
	bound := 0.0
	for _, m := range bf.EndToEnd {
		if m.Name == "flow_p50_us" {
			bound = m.Bound
		}
	}
	var buf bytes.Buffer
	if code := compareRuns(&buf, mk(0, 100), mk(0, 101), bf); code != 0 {
		t.Errorf("a 1%% difference must pass, got exit %d:\n%s", code, buf.String())
	}
	// header, run counts, the end-to-end rows, failed_share, one per-layer row
	if rows := strings.Count(buf.String(), "order_local"); rows != len(endToEndDefs)+3 {
		t.Errorf("want %d rows, got %d:\n%s", len(endToEndDefs)+3, rows, buf.String())
	}
	buf.Reset()
	if code := compareRuns(&buf, mk(0, 100), mk(0, 200), bf); code != 1 || !strings.Contains(buf.String(), "BEYOND") {
		t.Errorf("a doubled median must be marked and fail, got exit %d:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareRuns(&buf, mk(0, 100), mk(10, 100), bf); code != 1 {
		t.Errorf("a failed_share rise of 0.01 must fail, got exit %d", code)
	}
	// Medians of several runs: equal medians pass however one run strays,
	// until the quartiles spread beyond the bound.
	buf.Reset()
	if code := compareRuns(&buf, mk(0, 99, 100, 101, 100, 100, 99, 101, 100), mk(0, 100, 100, 300, 100, 100, 100, 100, 100), bf); code != 0 {
		t.Errorf("one stray run of eight must pass on medians, got exit %d:\n%s", code, buf.String())
	}
	buf.Reset()
	wide := 100 * (1 + 2*bound)
	if code := compareRuns(&buf, mk(0, 100, 100, 100, 100), mk(0, 100, 100, wide, wide), bf); code != 1 || !strings.Contains(buf.String(), "SPREAD") {
		t.Errorf("a spread beyond the bound must be marked and fail, got exit %d:\n%s", code, buf.String())
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{160, 10, 40, 20, 80}, 15, 120},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3, ok := quartiles(c.v); !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.v, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

// TestWindowEstimators: the gated figures rest on the whole window, a burst
// included; the driver.quiet_* figures average the best third of the slices
// and skip slices slowed by a burst, empty slices and the overhang past the
// window.
func TestWindowEstimators(t *testing.T) {
	if got := quietThird([]float64{9, 1, 5, 2, 7, 3}, true); got != 1.5 {
		t.Errorf("lower-is-better third of six = %v, want 1.5", got)
	}
	if got := quietThird([]float64{9, 1, 5, 2, 7, 3}, false); got != 8 {
		t.Errorf("higher-is-better third of six = %v, want 8", got)
	}
	if got := quietThird([]float64{0, 4, 0}, true); got != 4 {
		t.Errorf("empty slices must be skipped, got %v", got)
	}
	if got := quietThird(nil, true); got != 0 {
		t.Errorf("no slices = %v, want 0", got)
	}

	// Three seconds = six slices; slice k holds five flows of 100+10k µs,
	// except slices 2 to 5, hit by a burst: two flows each, five times
	// slower. One late flow ends past the window.
	w := window{length: 3 * time.Second}
	r := &recorder{}
	for k := 0; k < 6; k++ {
		ns, n := int64(100+10*k)*1000, 5
		if k >= 2 {
			ns, n = 5*ns, 2
		}
		for i := 0; i < n; i++ {
			at := int64(k)*int64(sliceWidth) + int64(i+1)*int64(time.Millisecond)
			r.flow = append(r.flow, sample{at: at, ns: ns})
			r.done = append(r.done, at)
		}
	}
	r.flow = append(r.flow, sample{at: int64(3*time.Second) + 1, ns: 1})
	r.done = append(r.done, int64(3*time.Second)+1)
	w.recs = []*recorder{r}
	pick := func(r *recorder) []sample { return r.flow }
	// 19 samples: 1 ns, five of 100 µs, five of 110 µs, then the burst: the
	// tenth is 110 µs.
	if p50, n := w.p50us(pick); p50 != 110 || n != 19 {
		t.Errorf("p50us = %v over %d samples, want 110 over 19", p50, n)
	}
	if got := w.flowsPerSecond(); got != 6 {
		t.Errorf("flowsPerSecond = %v, want 6 (18 flows inside 3 s)", got)
	}
	if got := w.flows(); got != 19 {
		t.Errorf("flows = %d, want all 19 completed", got)
	}
	if got := w.quietP50us(pick); got != 105 {
		t.Errorf("quietP50us = %v, want 105 (slices 0 and 1)", got)
	}
	if got := w.quietFlowsPerSecond(); got != 10 {
		t.Errorf("quietFlowsPerSecond = %v, want 10 (5 flows per half second)", got)
	}
}
