// Command perfbench is the repository's end-to-end benchmark. It drives the
// program through the public functions of its internal packages - no change
// to program code - under four workloads, checks every op against a
// reference implementation the repository already has, and prints one JSON
// result line.
//
// Usage (normally through run.py, which builds this binary first):
//
//	perfbench --workload suite|device-quiet|device-active|fleet \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics from spans the benchmark records around
// each call into a layer. The line before the result is an "info" object:
// provenance (CPU, nproc, GOMAXPROCS, Go version, commit), the generated
// inputs, sample counts, and every end-to-end figure by name with its unit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// config is what every workload receives.
type config struct {
	seed    int64
	budget  time.Duration // timed-loop length
	tr      *tracer       // nil in an untraced run
	workDir string        // private scratch directory inside the checkout
	exe     string        // this binary, for the suite's cold child processes
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	e2e               metrics        // untraced run: the BENCHMARK.json end_to_end set
	layers            metrics        // traced run: per-layer figures it measured
	figures           metrics        // every end-to-end figure the workload defines, by its own name
	info              map[string]any // inputs, sample counts
}

var workloads = map[string]func(context.Context, *config) (*outcome, error){
	"suite":         runSuite,
	"device-quiet":  runDeviceQuiet,
	"device-active": runDeviceActive,
	"fleet":         runFleet,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == suiteChildArg {
		os.Exit(suiteChild(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload to run: suite, device-quiet, device-active, fleet")
		seed     = flag.Int64("seed", 42, "workload seed; every input is generated from it")
		seconds  = flag.Int("seconds", 10, "length of the timed loop in host seconds")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workRoot = flag.String("work-dir", ".bench_build", "directory for scratch files and span dumps")
		commit   = flag.String("commit", "unknown", "source commit, recorded as provenance")
		source   = flag.String("source-digest", "unknown", "digest of the built sources, recorded as provenance")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1, --seed != 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := benchMain(run, *workload, *seed, *seconds, *traced == 1, *workRoot, *commit, *source); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func benchMain(run func(context.Context, *config) (*outcome, error), workload string, seed int64, seconds int, traced bool, workRoot, commit, source string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(workRoot, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	c := &config{seed: seed, budget: time.Duration(seconds) * time.Second, workDir: workDir, exe: exe}
	if traced {
		c.tr = newTracer()
	}
	out, err := run(context.Background(), c)
	if err != nil {
		return err
	}

	info := map[string]any{
		"workload":      workload,
		"seed":          seed,
		"seconds":       seconds,
		"traced":        traced,
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_digest": source,
		"ops":           out.attempted,
		"figures":       out.figures,
	}
	for k, v := range out.info {
		info[k] = v
	}
	result := out.e2e
	if traced {
		path := spanFile(workRoot, workload, seed)
		if err := c.tr.write(path); err != nil {
			return err
		}
		info["spans"] = path
		result = completeLayers(out.layers)
	}
	if err := missingMetrics(result, traced); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   result,
	})
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// samples is what loop measured.
type samples struct {
	ms      []float64 // each op's time on the loop's clock
	traced  []bool    // whether each op was traced
	peakMiB []float64 // this process's peak resident set over each cycle
}

// loop runs op back to back (a closed loop, one op in flight) until budget
// has elapsed, then on to the end of the current cycle of distinct inputs,
// so every run weighs each input equally. It records each op's time on
// clock in ms (the budget is always host wall time) and the process's peak
// resident set over each cycle. prep, when set, runs before each op
// outside its timing and outside the cycle's peak; an error from prep ends
// the loop. In a traced run every other op is traced: the untraced ones,
// interleaved with them, are the baseline the tracing overhead is taken
// from.
func loop(budget time.Duration, cycle int, clock opClock, tr *tracer, prep func(i int, tr *tracer) error, op func(i int, tr *tracer)) (samples, error) {
	var s samples
	// Set-up garbage goes back to the system first, so the peaks are the
	// ops' own and not whatever the scavenger has yet to return.
	debug.FreeOSMemory()
	start := time.Now()
	for i := 0; i%cycle != 0 || i == 0 || time.Since(start) < budget; i++ {
		var opTr *tracer
		if tracedOp(i, cycle) {
			opTr = tr
		}
		if prep != nil {
			if err := prep(i, opTr); err != nil {
				return s, err
			}
		}
		if i%cycle == 0 {
			if err := resetPeakRSS(); err != nil {
				return s, err
			}
		}
		t0 := clock()
		op(i, opTr)
		s.ms = append(s.ms, float64((clock()-t0).Nanoseconds())/1e6)
		s.traced = append(s.traced, opTr != nil)
		if i%cycle == cycle-1 {
			peak, err := peakRSSMiB()
			if err != nil {
				return s, err
			}
			s.peakMiB = append(s.peakMiB, peak)
		}
	}
	return s, nil
}

// opClock reads the clock ops are timed on.
type opClock func() time.Duration

var processStart = time.Now()

// wallClock is host wall time. Suite and fleet ops are timed on it: they
// wait on child processes, sockets and disk, which CPU time would miss.
func wallClock() time.Duration { return time.Since(processStart) }

// cpuClock is the CPU time of all this process's threads
// (CLOCK_PROCESS_CPUTIME_ID). Device ops are timed on it: a device run is
// computation on one goroutine that never blocks, so on an unshared host
// its CPU time is its wall time, while unlike wall time it leaves out the
// time the host hands to other processes or, through the kernel's
// paravirtual steal accounting, to other guests.
func cpuClock() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID in <time.h>

// tracedOp says whether op i of a traced run is traced: every other op,
// with the alternation shifted by one each cycle when the cycle length is
// even, so every input gets both traced and untraced ops.
func tracedOp(i, cycle int) bool {
	return (i+(i/cycle)*(1-cycle%2))%2 == 1
}

// Set-up is repeated and the reported figure is the median: set-up is
// cheap on most workloads (ms or less), so one sample is mostly noise. A
// workload sets up at least its own minimum number of times and goes on
// until setupBudget has passed, up to maxSetupReps times.
const (
	setupReps    = 25
	maxSetupReps = 200
	setupBudget  = time.Second
)

// repeatSetup runs setup at least n times and then until setupBudget has
// passed (at most maxSetupReps times), timing each, and keeps the last
// state. discard, when set, releases each earlier state outside the timing.
func repeatSetup[T any](n int, setup func(rep int) (T, error), discard func(T) error) (T, []float64, error) {
	var state T
	var secs []float64
	start := time.Now()
	for rep := 0; rep < maxSetupReps && (rep < n || time.Since(start) < setupBudget); rep++ {
		t0 := time.Now()
		s, err := setup(rep)
		if err != nil {
			return state, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if rep > 0 && discard != nil {
			if err := discard(state); err != nil {
				return s, nil, err
			}
		}
		state = s
	}
	return state, secs, nil
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set (VmHWM) from its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMiB is this process's peak resident set since the last
// resetPeakRSS.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kib); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commonFigures fills the figures every workload reports. opMS holds
// whole cycles of cycle ops, each cycle running every distinct input once.
// run_ms is the median over cycles of the cycle's mean op time: the median
// op of a mix whose inputs differ tenfold in cost jumps between inputs
// from run to run, while a cycle's mean weighs every input equally.
// simYearsPerOp is the simulated device time one op covers, 0 if none.
func commonFigures(out *outcome, setupSecs, opMS []float64, cycle int, rssMiB, simYearsPerOp float64) {
	var cycleMeans []float64
	for i := 0; i+cycle <= len(opMS); i += cycle {
		cycleMeans = append(cycleMeans, sum(opMS[i:i+cycle])/float64(cycle))
	}
	runMS := median(cycleMeans)
	out.e2e = metrics{}
	out.e2e.set("setup_s", median(setupSecs), "s")
	out.e2e.set("run_ms", runMS, "ms")
	out.e2e.set("peak_rss_mb", rssMiB, "MiB")
	out.figures = metrics{}
	for k, v := range out.e2e {
		out.figures[k] = v
	}
	out.figures.set("run_p50_ms", median(opMS), "ms")
	out.figures.set("error_rate", float64(out.failed)/float64(out.attempted), "fraction")
	if simYearsPerOp > 0 {
		out.figures.set("device_years_per_hour", simYearsPerOp/(runMS/3.6e6), "dev-yr/host-h")
	}
	if out.info == nil {
		out.info = map[string]any{}
	}
	out.info["setup_samples"] = len(setupSecs)
	out.info["run_samples"] = len(opMS)
	out.info["cycles"] = len(cycleMeans)
	if p90, ok := percentile(opMS, 0.9); ok {
		out.figures.set("run_p90_ms", p90, "ms")
	} else {
		out.info["run_p90_ms"] = fmt.Sprintf("not reported: %d samples leave fewer than %d beyond p90", len(opMS), minBeyond)
	}
}

// overhead records the tracing overhead of a traced run: per distinct
// input, its mean traced op minus its mean untraced op, averaged over the
// inputs that had both kinds.
func overhead(out *outcome, ms []float64, traced []bool, cycle int) {
	type pair struct{ on, off []float64 }
	byInput := make([]pair, cycle)
	for i, v := range ms {
		p := &byInput[i%cycle]
		if traced[i] {
			p.on = append(p.on, v)
		} else {
			p.off = append(p.off, v)
		}
	}
	var diffs []float64
	for _, p := range byInput {
		if len(p.on) > 0 && len(p.off) > 0 {
			diffs = append(diffs, sum(p.on)/float64(len(p.on))-sum(p.off)/float64(len(p.off)))
		}
	}
	if len(diffs) == 0 {
		out.layers.set("trace.overhead_ms", 0, "ms")
		out.info["trace_overhead"] = "not measured: the run fit only one op"
		return
	}
	out.layers.set("trace.overhead_ms", sum(diffs)/float64(len(diffs)), "ms")
	out.info["overhead_inputs"] = len(diffs)
}
