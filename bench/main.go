// Command bench is the repository's end-to-end benchmark: two closed-loop
// clients drive the paper's grant → check → settle flow through every
// deployment shape of promises.Engine. See README.md in this directory.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//	bash bench/run.sh [-seconds 20] [-seed 1]                         the whole suite: both runs of every workload
//	bash bench/run.sh -smoke                                          the suite at one second per run
//	bash bench/run.sh -compare a b                                    A/A or before/after table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// runRecord is the outcome of one run of one workload: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
// Every run appends its record to runs.jsonl in the output directory; the
// suite's summary and -compare read the same records.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
}

func (r *runRecord) failedShare() float64 {
	return float64(r.Failed) / float64(max(r.Attempted, 1))
}

type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	TempDirFS  string `json:"temp_dir_filesystem"`
}

// summary is the suite's JSON output. Claim stays null: this benchmark
// defines the yardstick and claims no gain.
type summary struct {
	Benchmark  string      `json:"benchmark"`
	Machine    machineInfo `json:"machine"`
	Seed       int64       `json:"seed"`
	Loop       string      `json:"loop"`
	Clients    int         `json:"clients"`
	Shards     int         `json:"shards"`
	SyncPolicy string      `json:"daemon_durable_sync_policy"`
	MeasuredS  float64     `json:"measured_s"`
	WarmupS    float64     `json:"warmup_s"`
	TracedS    float64     `json:"traced_s"`
	Runs       []runRecord `json:"runs"`
	Claim      *string     `json:"claim"`
}

func machine(dir string) machineInfo {
	return machineInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), TempDirFS: fsName(dir)}
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("type 0x%x", int64(st.Type))
}

// warmupFor is two seconds, or a fifth of a short measured window.
func warmupFor(measure time.Duration) time.Duration {
	return min(2*time.Second, measure/5)
}

// tracedFor is the traced pass of a traced run; the rest of the run's
// seconds go to the untraced reference pass before it. A run too short for
// that splits its seconds in half.
const tracedFor = 5 * time.Second

func tracedShare(seconds time.Duration) time.Duration { return min(tracedFor, seconds/2) }

// passNote is what the watchdog can say of a pass that finished inside a
// run that did not.
type passNote struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// progress holds what the watchdog dumps if the run hangs: the records of
// the runs that finished and the passes of the run under way.
var progress struct {
	mu     sync.Mutex
	Runs   []runRecord `json:"finished_runs"`
	Passes []passNote  `json:"finished_passes_of_the_hung_run"`
}

func notePass(p *pass) {
	m, _ := p.endToEnd()
	progress.mu.Lock()
	progress.Passes = append(progress.Passes, passNote{p.spec.workload, p.spec.traced, p.attempted, p.failed, m})
	progress.mu.Unlock()
}

// startWatchdog makes a hung run fail loudly instead of blocking whoever
// waits for it: partial results and goroutine stacks go to outDir.
func startWatchdog(limit time.Duration, outDir string) {
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: still running after %v; dumping stacks to %s\n", limit, outDir)
		if f, err := os.Create(filepath.Join(outDir, "watchdog-stacks.txt")); err == nil {
			_ = pprof.Lookup("goroutine").WriteTo(f, 2)
			f.Close()
		}
		progress.mu.Lock()
		b, _ := json.MarshalIndent(&progress, "", "  ")
		progress.mu.Unlock()
		_ = os.WriteFile(filepath.Join(outDir, "watchdog-partial.json"), b, 0o644)
		os.Exit(3)
	})
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced one")
		smoke    = flag.Bool("smoke", false, "suite at one second per run")
		compare  = flag.Bool("compare", false, "compare two sets of runs (runs.jsonl or summary.json): -compare a b")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for span files, run records, summaries and scratch data")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a b")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json"))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	measureFor := time.Duration(*seconds) * time.Second
	if *smoke {
		measureFor = time.Second
	}
	// One run: its seconds, warm-ups before both passes, set-ups and checks.
	planned := measureFor + 2*warmupFor(measureFor) + 10*time.Second
	if *workload != "" {
		if _, ok := workloadWhy[*workload]; !ok {
			fatal("unknown workload %q (have %v)", *workload, workloadNames)
		}
		startWatchdog(min(3*planned, 175*time.Second), *outDir)
		r := runWorkload(*workload, *seed, measureFor, *trace == 1, *outDir)
		printRun(r)
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		os.Exit(exitCode(r.Failed))
	}
	startWatchdog(3*planned*time.Duration(2*len(workloadNames)), *outDir)
	os.Exit(runSuite(*seed, measureFor, *outDir))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func exitCode(failed int) int {
	if failed != 0 {
		return 1
	}
	return 0
}

// runWorkload is one run, the unit the driver, the suite and -compare all
// deal in. Untraced, it measures one pass of seconds and reports the
// end-to-end metrics. Traced, it spends the seconds on an untraced reference
// pass and then a traced pass of tracedShare(seconds), so the tracing
// overhead is measured inside the run, and reports the per-layer metrics.
func runWorkload(workload string, seed int64, seconds time.Duration, traced bool, outDir string) runRecord {
	r := runRecord{Workload: workload, Seed: seed, Seconds: seconds.Seconds()}
	ref := runSpec{workload: workload, seed: seed, warm: warmupFor(seconds), measure: seconds, setups: setupRepeats, outDir: outDir}
	if traced {
		r.Trace = 1
		ref.measure -= tracedShare(seconds)
		ref.warm, ref.setups = warmupFor(ref.measure), 1
	}
	rp, err := measure(ref)
	if err != nil {
		fatal("%s: %v", workload, err)
	}
	notePass(rp)
	r.Attempted, r.Failed, r.Failures = rp.attempted, rp.failed, rp.failures
	if traced {
		ts := ref
		ts.traced, ts.measure = true, tracedShare(seconds)
		ts.warm = warmupFor(ts.measure)
		tp, err := measure(ts)
		if err != nil {
			fatal("%s traced: %v", workload, err)
		}
		notePass(tp)
		r.Attempted, r.Failed, r.Failures = r.Attempted+tp.attempted, r.Failed+tp.failed, append(r.Failures, tp.failures...)
		if r.Metrics, err = perLayer(rp, tp); err != nil {
			fatal("%s: %v", workload, err)
		}
	} else {
		r.Metrics, r.Samples = rp.endToEnd()
	}
	r.Correct = r.Failed == 0
	if err := appendRecord(filepath.Join(outDir, "runs.jsonl"), r); err != nil {
		fatal("%v", err)
	}
	progress.mu.Lock()
	progress.Runs, progress.Passes = append(progress.Runs, r), nil
	progress.mu.Unlock()
	return r
}

func appendRecord(path string, r runRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRun prints every metric of a run by name and unit, with the sample
// count of each timing, and what failed.
func printRun(r runRecord) {
	defs := endToEndDefs
	if r.Trace == 1 {
		defs = perLayerDefs
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		if n, ok := r.Samples[d.Name]; ok {
			fmt.Printf("%-16s %-34s %14.3f %-6s n=%d\n", r.Workload, d.Name, v.Value, v.Unit, n)
		} else {
			fmt.Printf("%-16s %-34s %14.3f %s\n", r.Workload, d.Name, v.Value, v.Unit)
		}
	}
	fmt.Printf("%-16s %-34s %14.6f %-6s n=%d\n", r.Workload, "failed_share", r.failedShare(), "ratio", r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	fmt.Printf("clients=%d (closed loop) shards=%d seed=%d seconds=%v trace=%d daemon_durable flush policy SyncAlways\n",
		numClients, numShards, r.Seed, r.Seconds, r.Trace)
}

// runSuite makes the two runs of every workload, untraced then traced,
// prints them, and writes the summary.
func runSuite(seed int64, measureFor time.Duration, outDir string) int {
	s := summary{
		Benchmark: "bench", Machine: machine(outDir), Seed: seed, Loop: "closed", Clients: numClients, Shards: numShards,
		SyncPolicy: "always", MeasuredS: measureFor.Seconds(), WarmupS: warmupFor(measureFor).Seconds(), TracedS: tracedShare(measureFor).Seconds(),
	}
	failed := 0
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := runWorkload(w, seed, measureFor, traced, outDir)
			printRun(r)
			failed += r.Failed
			s.Runs = append(s.Runs, r)
		}
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	path := filepath.Join(outDir, "summary.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
	fmt.Fprintf(os.Stderr, "bench: summary written to %s\n", path)
	return exitCode(failed)
}
