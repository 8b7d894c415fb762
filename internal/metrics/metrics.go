// Package metrics provides the lightweight counters and latency histograms
// used by the benchmark harness (cmd/promise-bench) and by integration tests
// to report the experiment rows whose claims
// internal/experiments/experiments_test.go asserts (E1–E11).
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (delta may be negative only in tests; production callers
// should treat Counter as monotonic).
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a settable point-in-time value safe for concurrent use, for
// quantities that go up and down (shard imbalance, queue depth).
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value set (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultReservoirSize bounds a zero-value Histogram's sample memory. 4096
// samples keep the p99 of a steady workload within a fraction of a percent
// of exact while capping a Stats scrape at one fixed-size copy+sort.
const DefaultReservoirSize = 4096

// Histogram records durations and reports percentile summaries. It keeps a
// fixed-size uniform reservoir (Vitter's Algorithm R): the first Cap
// observations are stored exactly, after which each new observation replaces
// a random resident with probability Cap/seen. Percentiles are exact until
// the reservoir fills and statistically representative afterwards, so a
// long-lived daemon's scrape cost stays O(Cap) no matter how many requests
// it has served. The zero value is ready to use with DefaultReservoirSize.
type Histogram struct {
	// Cap is the reservoir capacity. Zero means DefaultReservoirSize. Set
	// it before the first Observe; it must not change afterwards.
	Cap int

	mu      sync.Mutex
	seen    int64
	rng     *rand.Rand
	samples []time.Duration
}

func (h *Histogram) cap() int {
	if h.Cap > 0 {
		return h.Cap
	}
	return DefaultReservoirSize
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.seen++
	if len(h.samples) < h.cap() {
		h.samples = append(h.samples, d)
		h.mu.Unlock()
		return
	}
	if h.rng == nil {
		// Seeded from the sample count so replacement is deterministic per
		// histogram history; the distributional guarantee does not depend on
		// seed quality.
		h.rng = rand.New(rand.NewSource(h.seen))
	}
	if j := h.rng.Int63n(h.seen); j < int64(len(h.samples)) {
		h.samples[j] = d
	}
	h.mu.Unlock()
}

// Count returns the number of observations (not the reservoir occupancy).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.seen)
}

// Samples returns a copy of the retained reservoir samples, so callers can
// merge several histograms into one summary (see SummarizeDurations) —
// percentiles of a union cannot be recovered from per-histogram summaries.
// The copy is at most Cap long regardless of how much was observed.
func (h *Histogram) Samples() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]time.Duration, len(h.samples))
	copy(out, h.samples)
	return out
}

// Summary holds a percentile summary of a Histogram. Percentiles are exact
// while the reservoir has not filled and reservoir-sampled afterwards;
// Count is always the true number of observations, never the (bounded)
// number of retained samples.
type Summary struct {
	Count          int
	Min, Max, Mean time.Duration
	P50, P90, P99  time.Duration
}

// Summarize computes a Summary. An empty histogram yields a zero Summary.
func (h *Histogram) Summarize() Summary {
	s := SummarizeDurations(h.Samples())
	s.Count = h.Count()
	return s
}

// SummarizeDurations computes a Summary over raw samples, which it sorts in
// place; Count is len(samples). Callers merging bounded reservoirs should
// overwrite Count with the true observation total (see Histogram.Summarize)
// — and note that concatenating reservoirs weights each histogram by its
// retained samples, not its traffic. Empty input yields a zero Summary.
func SummarizeDurations(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	pick := func(q float64) time.Duration {
		idx := int(math.Ceil(q*float64(len(samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		return samples[idx]
	}
	return Summary{
		Count: len(samples),
		Min:   samples[0],
		Max:   samples[len(samples)-1],
		Mean:  total / time.Duration(len(samples)),
		P50:   pick(0.50),
		P90:   pick(0.90),
		P99:   pick(0.99),
	}
}

// String renders the summary as a single row, e.g. for experiment output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%v p50=%v p90=%v p99=%v max=%v mean=%v",
		s.Count, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean)
}

// Rate is a convenience: successes/total as a percentage string, guarding
// the zero-total case.
func Rate(success, total int64) string {
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(success)/float64(total))
}
