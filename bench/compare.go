package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// loadRuns reads run records from a suite's summary.json or from a
// runs.jsonl, one record per line.
func loadRuns(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if json.Unmarshal(b, &s) == nil && len(s.Runs) > 0 {
		return s.Runs, nil
	}
	var runs []runRecord
	for i, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return runs, nil
}

// failedShareSlack is the absolute rise of failed_share a comparison
// tolerates.
const failedShareSlack = 0.001

// compareFiles loads two sets of runs and BENCHMARK.json for compareRuns.
func compareFiles(w io.Writer, aPath, bPath, benchPath string) int {
	a, err := loadRuns(aPath)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadRuns(bPath)
	if err != nil {
		fatal("%v", err)
	}
	bf, err := loadBenchmarkFile(benchPath)
	if err != nil {
		fatal("%v", err)
	}
	return compareRuns(w, a, b, bf)
}

// runSet is one side of a comparison: per workload and metric the values of
// every run, and the operation counts of all runs of the workload together.
type runSet struct {
	values            map[string]map[string][]float64
	runs              map[string]int // untraced runs per workload
	attempted, failed map[string]int
}

func gather(runs []runRecord) runSet {
	s := runSet{values: map[string]map[string][]float64{}, runs: map[string]int{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range runs {
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
		if r.Trace == 0 {
			s.runs[r.Workload]++
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	return s
}

func (s *runSet) failedShare(workload string) float64 {
	return float64(s.failed[workload]) / float64(max(s.attempted[workload], 1))
}

// spread is the distance between the first and the third quartile as a
// share of the median, the driver's measure of repeatability; NaN for fewer
// than two values.
func spread(v []float64) float64 {
	q1, q3, ok := quartiles(v)
	if m := medianFloat(v); ok && m != 0 {
		return (q3 - q1) / m
	}
	return math.NaN()
}

// compareRuns prints, per workload and metric, the median of each side,
// their relative difference, the bound and each side's spread, one row
// each. An end-to-end row is marked when its medians differ by more than the
// bound in either direction, or when a side's spread exceeds the bound
// (setup_s spreads are exempt, as in the driver); any marked row makes the
// exit code 1.
func compareRuns(w io.Writer, aRuns, bRuns []runRecord, bf *benchmarkFile) int {
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	a, b := gather(aRuns), gather(bRuns)
	beyond := 0
	pct := func(x float64) string {
		if math.IsNaN(x) {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*x)
	}
	fmt.Fprintf(w, "%-16s %-34s %14s %14s %9s %7s %9s %9s\n", "workload", "metric", "a", "b", "diff", "bound", "spread a", "spread b")
	for _, name := range workloadNames {
		va, vb := a.values[name], b.values[name]
		if va == nil && vb == nil {
			continue
		}
		if va == nil || vb == nil {
			fmt.Fprintf(w, "%-16s missing from one side\n", name)
			beyond++
			continue
		}
		fmt.Fprintf(w, "%-16s untraced runs: a %d, b %d\n", name, a.runs[name], b.runs[name])
		for _, d := range endToEndDefs {
			ma, mb := medianFloat(va[d.Name]), medianFloat(vb[d.Name])
			diff, sa, sb := relDiff(ma, mb), spread(va[d.Name]), spread(vb[d.Name])
			mark := ""
			if math.Abs(diff) > bounds[d.Name] {
				mark = "  BEYOND"
			}
			if d.Name != "setup_s" && (sa > bounds[d.Name] || sb > bounds[d.Name]) {
				mark += "  SPREAD"
			}
			if mark != "" {
				beyond++
			}
			fmt.Fprintf(w, "%-16s %-34s %14.3f %14.3f %+8.2f%% %6.1f%% %9s %9s%s\n", name, d.Name, ma, mb, 100*diff, 100*bounds[d.Name], pct(sa), pct(sb), mark)
		}
		fa, fb := a.failedShare(name), b.failedShare(name)
		mark := ""
		if fb-fa > failedShareSlack {
			mark = "  BEYOND"
			beyond++
		}
		fmt.Fprintf(w, "%-16s %-34s %14.6f %14.6f %+9.6f %7.3f%s\n", name, "failed_share", fa, fb, fb-fa, failedShareSlack, mark)
		for _, d := range perLayerDefs {
			if len(va[d.Name]) == 0 || len(vb[d.Name]) == 0 {
				continue
			}
			ma, mb := medianFloat(va[d.Name]), medianFloat(vb[d.Name])
			fmt.Fprintf(w, "%-16s %-34s %14.3f %14.3f %+8.2f%% %7s %9s %9s\n", name, d.Name, ma, mb, 100*relDiff(ma, mb), "-",
				pct(spread(va[d.Name])), pct(spread(vb[d.Name])))
		}
	}
	if beyond > 0 {
		fmt.Fprintf(w, "%d end-to-end rows beyond their bound\n", beyond)
		return 1
	}
	fmt.Fprintln(w, "every end-to-end row within its bound")
	return 0
}

// relDiff is (b − a) ÷ a, and 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}
