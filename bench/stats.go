package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule; 0 for no samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// samplesBeyond counts the samples strictly above the q-quantile's rank.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// tailSupported reports whether at least ten samples lie beyond the
// q-quantile, the rule for quoting a tail percentile at all.
func tailSupported(n int, q float64) bool { return samplesBeyond(n, q) >= 10 }

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianInt(v []int64) int64 { return percentile(sortedCopy(v), 0.5) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) gives them (its default, exclusive method);
// ok is false for fewer than two values.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	if len(v) < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// window is one measured phase with the counter readings around it.
type window struct {
	length        time.Duration
	recs          []*recorder
	before, after counters
}

// all gathers one kind of sample from every client.
func (w *window) all(pick func(*recorder) []sample) []sample {
	var out []sample
	for _, r := range w.recs {
		out = append(out, pick(r)...)
	}
	return out
}

// durations returns every sample of one kind, sorted.
func (w *window) durations(pick func(*recorder) []sample) []int64 {
	all := w.all(pick)
	out := make([]int64, len(all))
	for i, s := range all {
		out[i] = s.ns
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// p50us is the median of one kind of sample over the whole window, in
// microseconds, with the number of samples it rests on.
func (w *window) p50us(pick func(*recorder) []sample) (float64, int) {
	d := w.durations(pick)
	return usOf(percentile(d, 0.5)), len(d)
}

// flows counts every flow completed in the phase, the ones in flight when
// the window closed included; the counter readings around the phase cover
// exactly these.
func (w *window) flows() (n int) {
	for _, r := range w.recs {
		n += len(r.done)
	}
	return n
}

// flowsInside counts the flows that ended inside the window.
func (w *window) flowsInside() (n int) {
	for _, r := range w.recs {
		for _, at := range r.done {
			if at <= int64(w.length) {
				n++
			}
		}
	}
	return n
}

// flowsPerSecond is the flows both clients completed inside the window
// divided by its length.
func (w *window) flowsPerSecond() float64 {
	return float64(w.flowsInside()) / w.length.Seconds()
}

// sliceWidth cuts a measured window into slices for the two driver.quiet_*
// per-layer metrics. The sandbox shares its two cores with neighbours that
// slow it for a second or a few at a time, always in one direction; the
// quiet-third figures leave those slices out. They also leave out bursts the
// program itself causes, so they gate nothing: they tell a reader whether a
// moved whole-window number moved in the quiet slices too.
const sliceWidth = 500 * time.Millisecond

func (w *window) slices() int { return max(int(w.length/sliceWidth), 1) }

// sliceOf places an end offset; what ended after the last full slice is
// left out.
func (w *window) sliceOf(at int64) (int, bool) {
	if w.length < sliceWidth {
		return 0, true
	}
	k := int(at / int64(sliceWidth))
	return k, k < w.slices()
}

// quietThird is the mean of the best third of per-slice values: the lowest
// when lower is better, the highest otherwise. Empty slices are skipped.
func quietThird(perSlice []float64, lowerIsBetter bool) float64 {
	v := make([]float64, 0, len(perSlice))
	for _, x := range perSlice {
		if x > 0 {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if !lowerIsBetter {
		slices.Reverse(v)
	}
	n := (len(v) + 2) / 3
	sum := 0.0
	for _, x := range v[:n] {
		sum += x
	}
	return sum / float64(n)
}

// quietP50us is the quiet-third of the per-slice medians of one kind of
// sample, in microseconds.
func (w *window) quietP50us(pick func(*recorder) []sample) float64 {
	per := make([][]int64, w.slices())
	for _, s := range w.all(pick) {
		if k, ok := w.sliceOf(s.at); ok {
			per[k] = append(per[k], s.ns)
		}
	}
	medians := make([]float64, len(per))
	for k, v := range per {
		medians[k] = usOf(medianInt(v))
	}
	return quietThird(medians, true)
}

// quietFlowsPerSecond is the quiet-third of the per-slice completion rates.
func (w *window) quietFlowsPerSecond() float64 {
	per := make([]float64, w.slices())
	for _, r := range w.recs {
		for _, at := range r.done {
			if k, ok := w.sliceOf(at); ok {
				per[k]++
			}
		}
	}
	width := min(sliceWidth, w.length).Seconds()
	for k := range per {
		per[k] /= width
	}
	return quietThird(per, false)
}
