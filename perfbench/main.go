// Command perfbench is the repository's end-to-end benchmark. It drives the
// emulator through its public entry points on three workloads and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time and host
// memory); with -trace 1 a separate traced run reports per-layer numbers
// from recorded spans, a CPU profile and the simulator's own counters. See
// README.md for the workloads, the layer table and how to read the output.
//
// Usage:
//
//	perfbench --workload replay-corpus --seed 1 --seconds 20 --trace 0
//	perfbench --layers cpu.pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned output digests were taken at.
const defaultSeed = 1

// setupReps is how many times a timed run performs its set-up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 5

// workload is one benchmark input set. setup prepares it (repeatable: each
// call starts over) and reports the checks of any warm-up work it did,
// batch runs one unit of timed work, traced re-runs a fixed amount of the
// same work with spans and reports layer counters.
type workload interface {
	setup(seed uint64, tr *tracer) (batchResult, error)
	batch() batchResult
	// minBatches is the least number of batches a timed run makes, so that
	// every check gets exercised even on a slow host.
	minBatches() int
	traced(tr *tracer) (batchResult, layerCounters)
}

// detailer is implemented by workloads with facts worth keeping in the run
// record beyond the metrics.
type detailer interface {
	details() map[string]any
}

// batchResult is one unit of work: ops attempted, ops that failed a check,
// and the reasons for the first few failures. extra is host time a traced
// run spends on measurements the timed phase does not make; it is left out
// of the traced rate.
type batchResult struct {
	ops, failed int
	problems    []string
	extra       time.Duration
}

// add folds o into b.
func (b *batchResult) add(o batchResult) {
	b.ops += o.ops
	b.failed += o.failed
	b.extra += o.extra
	b.problems = appendProblems(b.problems, o.problems)
}

func (b *batchResult) fail(n int, format string, args ...any) {
	b.failed += n
	if len(b.problems) < 4 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// layerCounters are per-layer values a workload measures itself, keyed by
// per-layer metric name.
type layerCounters map[string]float64

var workloads = map[string]func(workers int) workload{
	"replay-corpus":  newReplayCorpus,
	"record-replay":  newRecordReplay,
	"contention-10k": newContention,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: replay-corpus, record-replay or contention-10k")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the run record, spans and CPU profile")
	layersFile := flag.String("layers", "", "print the layer attribution of this CPU profile and exit")
	flag.Parse()

	if *layersFile != "" {
		if err := printLayers(*layersFile); err != nil {
			fatalf("perfbench: %v", err)
		}
		return
	}
	mk, ok := workloads[*workloadName]
	if !ok {
		fatalf("perfbench: unknown -workload %q", *workloadName)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fatalf("perfbench: -seconds must be >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("perfbench: %v", err)
	}
	host := hostFingerprint()
	w := mk(runtime.NumCPU())
	run := runInfo{workload: *workloadName, seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: *outDir}
	var (
		res     result
		details map[string]any
		err     error
	)
	if *traceFlag == 1 {
		res, details, err = tracedRun(w, run)
	} else {
		res, details, err = timedRun(w, run)
	}
	if err != nil {
		fatalf("perfbench: %s: %v", *workloadName, err)
	}
	record := map[string]any{
		"workload": *workloadName, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"host": host, "result": res, "details": details,
	}
	recPath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *workloadName, *seed, *traceFlag))
	if err := writeJSON(recPath, record); err != nil {
		fatalf("perfbench: %v", err)
	}
	printSummary(res, host, details, recPath)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	fmt.Println(string(line))
}

// runInfo carries the command-line settings into a run.
type runInfo struct {
	workload string
	seed     uint64
	seconds  time.Duration
	outDir   string
}

func (r runInfo) base() string {
	return filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d", r.workload, r.seed))
}

// timedRun sets the workload up setupReps times, then runs batches for the
// requested seconds with tracing off and reports the end-to-end metrics.
func timedRun(w workload, run runInfo) (result, map[string]any, error) {
	var (
		setups []float64
		warm   batchResult
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		b, err := w.setup(run.seed, nil)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		warm.add(b)
	}
	ph := timedPhase(w, run.seconds)
	hwm, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	p50 := percentile(ph.perOp, 50)
	tailPct, tail := tailPercentile(ph.perOp)
	res := newResult(warm.ops+ph.ops, warm.failed+ph.failed)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["ops_per_s"] = metric{ph.rate(), "1/s"}
	res.Metrics["op_ms_p50"] = metric{p50, "ms"}
	res.Metrics["op_ms_tail"] = metric{tail, "ms"}
	details := map[string]any{
		"setup_s_each":   setups,
		"peak_rss_mb":    hwm,
		"batches":        ph.batches,
		"op_samples":     len(ph.perOp),
		"op_ms_samples":  ph.perOp,
		"op_ms_tail_pct": tailPct,
		"elapsed_s":      ph.elapsed.Seconds(),
		"cpu_s":          ph.cpu.Seconds(),
		"fail_ratio":     float64(res.Failed) / float64(res.Attempted),
		"problems":       appendProblems(warm.problems, ph.problems),
	}
	if d, ok := w.(detailer); ok {
		for k, v := range d.details() {
			details[k] = v
		}
	}
	return res, details, nil
}

// phase is the outcome of running batches back to back.
type phase struct {
	ops, failed, batches int
	elapsed              time.Duration
	// perOp holds one host-time sample per batch: the batch's wall time
	// divided by its op count, in milliseconds.
	perOp    []float64
	problems []string
	mem      memDelta
	cpu      time.Duration // process CPU time, user and system
}

func (p phase) rate() float64 {
	return float64(p.ops-p.failed) / p.elapsed.Seconds()
}

// timedPhase runs batches until d has passed (and at least minBatches ran),
// with allocation and GC counters taken as deltas over exactly this phase.
func timedPhase(w workload, d time.Duration) phase {
	var ph phase
	m0 := readMem()
	c0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for ph.batches < w.minBatches() || time.Now().Before(deadline) {
		t0 := time.Now()
		b := w.batch()
		dt := time.Since(t0)
		ph.batches++
		ph.ops += b.ops
		ph.failed += b.failed
		if b.ops > 0 {
			ph.perOp = append(ph.perOp, float64(dt.Nanoseconds())/1e6/float64(b.ops))
		}
		ph.problems = appendProblems(ph.problems, b.problems)
	}
	ph.elapsed = time.Since(start)
	ph.mem = readMem().sub(m0)
	ph.cpu = cpuTime() - c0
	return ph
}

func appendProblems(dst, src []string) []string {
	for _, p := range src {
		if len(dst) >= 8 {
			break
		}
		dst = append(dst, p)
	}
	return dst
}

func newResult(attempted, failed int) result {
	if attempted < 1 {
		attempted, failed = 1, 1
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
}

// memDelta is the change in runtime.MemStats over a phase.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.Mallocs, ms.NumGC}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{m.allocBytes - o.allocBytes, m.mallocs - o.mallocs, m.gcCycles - o.gcCycles}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile returns the highest percentile that leaves at least ten
// samples beyond it, and its value. Below 101 samples that percentile is
// under the 90th, no longer a tail, and the maximum is reported instead
// (percentile 100).
func tailPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 101 {
		return 100, percentile(xs, 100)
	}
	// Index n-11 (0-based, sorted) has exactly ten samples above it.
	pct = 100 * float64(n-11) / float64(n-1)
	return pct, percentile(xs, pct)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSummary prints the human-readable result: host, each metric with
// its unit, and the run's side facts. The JSON line follows it.
func printSummary(res result, host map[string]any, details map[string]any, recPath string) {
	fmt.Printf("host: go=%v cpu=%q nproc=%v gomaxprocs=%v date=%v\n",
		host["go"], host["cpu_model"], host["nproc"], host["gomaxprocs"], host["date"])
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  %-28s %14.6g %s\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	if v, ok := details["peak_rss_mb"]; ok {
		fmt.Printf("  %-28s %14.6g %s\n", "peak_rss_mb", v, "MB")
	}
	if n, ok := details["op_samples"]; ok {
		fmt.Printf("  op samples %v, tail percentile %.1f\n", n, details["op_ms_tail_pct"])
	}
	if probs, ok := details["problems"].([]string); ok {
		for _, p := range probs {
			fmt.Printf("  check failed: %s\n", p)
		}
	}
	fmt.Printf("record: %s\n", recPath)
}

// hostFingerprint identifies the host a result was measured on, so later
// comparisons can pair only like hosts.
func hostFingerprint() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
