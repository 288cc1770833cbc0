// Command perfbench is the repository's benchmark: it runs one named
// workload through the layers' public entry points in a single process,
// checks every output, and prints the end-to-end metrics (or, traced,
// the per-layer metrics and a time ledger) as one JSON line.
//
//	perfbench --workload sweep-cold --seed 1 --seconds 20 --trace 0
//	perfbench compare OLD_DIR NEW_DIR
//	perfbench golden > golden.json
//
// Workloads (load follows nproc = 2: suites run at 2 jobs):
//
//   - sweep-cold: one exhaustive dse.Evaluate of a third of the proposal
//     space (reads at 2 and 6 cycles; the seed picks the write latency)
//     over all 16 kernels, on a fresh Suite and a fresh store directory:
//     81 configurations × 16 kernels of timing replay.
//   - sweep-warm: repeated smoke sweeps over 12 of the 16 kernels (the
//     seed picks the 4 dropped), each from a fresh Suite against a store
//     populated during set-up: the timing model never runs.
//   - serve-jobs: an in-process serve.Server on loopback with 2 workers
//     at 1 job each; one closed-loop client (random think time up to one
//     poll interval) runs whole passes over the kernels in seed-shuffled
//     order, each pass on a fresh service and store: an exhaustive
//     2-shard smoke job per kernel (cold), each followed by its
//     resubmission (warm).
//
// BENCHMARK.json in the working directory names the metrics to report.
// End-to-end metrics (untraced; an op is one sweep or cold job):
// setup_s (median of repeated set-ups), op_ms_p50, alloc_mb_per_op
// (median), max_rss_mb. The report and result file add sim_minst_per_s
// (simulated instructions behind the op's results, both passes, per host
// second) and tail percentiles where a run has enough samples. Failed or
// mismatched ops are the "failed" count of the result line; any failure
// makes the command exit 1.
//
// The traced run (--trace 1) runs untraced ops for half the time and
// traced ops for the other half, then layer probes on the workload's own
// kernels and configurations, and prints the per-layer metrics and a
// ledger setting Σ(layer self time × calls) against the untraced op time.
//
// Each run also writes a result file with provenance under
// .bench_build/results; compare reads two such directories.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchSpec is the slice of BENCHMARK.json the benchmark reads: the
// metrics it must report, with their units, directions and bounds.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runCtx) error{
	"sweep-cold": sweepCold,
	"sweep-warm": sweepWarm,
	"serve-jobs": serveJobs,
}

// setupReps is how many times each workload repeats its set-up; the
// reported setup_s is their median.
const setupReps = 5

// jobs is the suites' simulation concurrency: load follows nproc = 2.
const jobs = 2

// opSample is one measured op.
type opSample struct {
	kind    string // "" for sweeps; "cold"/"warm" for jobs
	ms      float64
	allocMB float64
	insts   uint64 // simulated instructions behind the op's results
}

// runCtx is one benchmark run's inputs and everything it measured.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // scratch directory for stores, removed at exit
	nextDir  int
	// batch is the op count each phase runs in whole multiples of (at
	// least once), even past its time share; primary is the op kind the
	// end-to-end metrics describe ("" = all).
	batch   int
	primary string

	setup     []float64 // set-up repetitions, seconds
	ops       []opSample
	tops      []opSample // traced ops (traced runs only)
	attempted int
	failed    int
	layers    map[string]float64
	extra     map[string]record // further metrics for the report and result file
	report    []string
}

// sampled is a reported value with the sample count it rests on.
type sampled struct {
	value float64
	n     int
}

func (r *runCtx) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.report = append(r.report, line)
	fmt.Fprintln(os.Stderr, line)
}

// fail records a failed or mismatched op.
func (r *runCtx) fail(format string, args ...any) {
	r.failed++
	r.logf("FAIL: "+format, args...)
}

// freshDir returns a new empty directory under the run's scratch root.
func (r *runCtx) freshDir(tag string) (string, error) {
	r.nextDir++
	d := filepath.Join(r.dir, fmt.Sprintf("%s-%d", tag, r.nextDir))
	return d, os.MkdirAll(d, 0o755)
}

// timeSetup runs one set-up repetition from a collected heap and records
// its duration.
func (r *runCtx) timeSetup(fn func() error) error {
	runtime.GC()
	start := time.Now()
	err := fn()
	r.setup = append(r.setup, time.Since(start).Seconds())
	return err
}

// measure runs one op from a collected heap and returns its sample; the
// op reports the simulated instructions behind its results.
func measure(kind string, op func() (uint64, error)) (opSample, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	insts, err := op()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return opSample{
		kind:    kind,
		ms:      float64(d) / 1e6,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		insts:   insts,
	}, err
}

// loop runs whole batches of op until the phase's share of the run's
// time is used, recording samples into dst. An op error ends the loop.
func (r *runCtx) loop(dst *[]opSample, share float64, op func(i int) (opSample, error)) {
	budget := time.Duration(float64(r.seconds) * share)
	batch := max(r.batch, 1)
	start := time.Now()
	for i := 0; i == 0 || i%batch != 0 || time.Since(start) < budget; i++ {
		r.attempted++
		s, err := op(i)
		if err != nil {
			r.fail("op %d: %v", i, err)
			return
		}
		*dst = append(*dst, s)
	}
}

// phases runs the untraced phase (the whole run, or half of a traced
// run) and, in a traced run, the traced phase.
func (r *runCtx) phases(op func(i int, t *tracer) (opSample, error), t *tracer) {
	share := 1.0
	if r.traced {
		share = 0.5
	}
	r.loop(&r.ops, share, func(i int) (opSample, error) { return op(i, nil) })
	if r.traced {
		r.loop(&r.tops, share, func(i int) (opSample, error) { return op(len(r.ops)+i, t) })
	}
}

func msOf(ops []opSample, kind string) []float64 {
	var out []float64
	for _, o := range ops {
		if kind == "*" || o.kind == kind {
			out = append(out, o.ms)
		}
	}
	return out
}

// endToEndMetrics derives the untraced metrics from the run's samples.
func (r *runCtx) endToEndMetrics() map[string]sampled {
	var ms, alloc []float64
	var insts uint64
	var opSec float64
	for _, o := range r.ops {
		if r.primary != "" && o.kind != r.primary {
			continue
		}
		ms = append(ms, o.ms)
		alloc = append(alloc, o.allocMB)
		insts += o.insts
		opSec += o.ms / 1e3
	}
	m := map[string]sampled{
		"setup_s":         {median(r.setup), len(r.setup)},
		"op_ms_p50":       {median(ms), len(ms)},
		"alloc_mb_per_op": {median(alloc), len(alloc)},
		"max_rss_mb":      {maxRSSMB(), 1},
	}
	// Throughput is reported but not bounded: with fixed work per op it
	// is the op time's reciprocal times a constant, and a reciprocal's
	// quartile spread is the wider one whenever the median lies among the
	// slower runs.
	r.extra["sim_minst_per_s"] = record{float64(insts) / 1e6 / opSec, "Minst/s", len(ms)}
	if p, ok := tailPercentile(len(ms)); ok {
		r.extra["op_ms_"+pctName(p)] = record{percentile(ms, p), "ms", len(ms)}
	}
	return m
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is the provenance-carrying record each run leaves under
// .bench_build/results.
type resultFile struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      int               `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Provenance provenance        `json:"provenance"`
	OpCounts   map[string]int    `json:"op_counts"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	ErrorRate  float64           `json:"error_rate"`
	Metrics    map[string]record `json:"metrics"`
	OpMS       []float64         `json:"op_ms"`
	Report     []string          `json:"report"`
}

type record struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples the value rests on
}

type provenance struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Jobs       int    `json:"jobs"`
}

func provenanceNow() provenance {
	p := provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not built in a git checkout)",
		Jobs:       jobs,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			p.Commit = rev + dirty
		}
	}
	return p
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if err := compareMain(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench compare:", err)
				os.Exit(1)
			}
			return
		case "golden":
			if err := goldenMain(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench golden:", err)
				os.Exit(1)
			}
			return
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep-cold, sweep-warm or serve-jobs")
	seed := fs.Int64("seed", 1, "workload seed (selects the instance)")
	seconds := fs.Int("seconds", 20, "measurement time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	run := workloads[*name]
	if run == nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	root := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	r := &runCtx{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, dir: root,
		layers: make(map[string]float64), extra: make(map[string]record),
	}
	defer os.RemoveAll(root)
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := run(r); err != nil {
		r.attempted++
		r.fail("%s: %v", *name, err)
	}
	if len(r.ops) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no op completed")
		return 1
	}
	r.logf("set-up repetitions: %.3f s", r.setup)
	e2e := r.endToEndMetrics()
	for _, m := range spec.EndToEnd {
		v, ok := e2e[m.Name]
		if !ok {
			r.fail("end-to-end metric %s not measured", m.Name)
		}
		r.logf("%-18s %14.4f %-8s (n=%d)", m.Name, v.value, m.Unit, v.n)
	}
	for _, k := range sortedKeys(r.extra) {
		r.logf("%-18s %14.4f %-8s (n=%d)", k, r.extra[k].Value, r.extra[k].Unit, r.extra[k].N)
	}
	out := resultLine{Attempted: r.attempted, Metrics: make(map[string]metricValue)}
	file := resultFile{
		Workload: *name, Seed: *seed, Trace: *trace, Seconds: float64(*seconds),
		Provenance: provenanceNow(), OpCounts: opCounts(r),
		Attempted: out.Attempted,
		Metrics:   make(map[string]record), OpMS: msOf(r.ops, "*"),
	}
	defs, vals := spec.EndToEnd, e2e
	if r.traced {
		defs, vals = spec.PerLayer, make(map[string]sampled)
		for _, m := range spec.PerLayer {
			v, ok := r.layers[m.Name]
			if !ok {
				r.fail("per-layer metric %s not measured", m.Name)
			}
			vals[m.Name] = sampled{v, 1}
			r.logf("%-32s %16.4f %s", m.Name, v, m.Unit)
		}
	}
	for _, m := range defs {
		if v := vals[m.Name].value; math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s has no finite value", m.Name)
			vals[m.Name] = sampled{}
		}
		out.Metrics[m.Name] = metricValue{vals[m.Name].value, m.Unit}
		file.Metrics[m.Name] = record{vals[m.Name].value, m.Unit, vals[m.Name].n}
	}
	for k, v := range r.extra {
		file.Metrics[k] = v
	}
	out.Correct, out.Failed = r.failed == 0, min(r.failed, r.attempted)
	file.Failed = out.Failed
	file.ErrorRate = float64(file.Failed) / float64(file.Attempted)
	file.Report = r.report
	if err := writeResultFile(file); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result file:", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

func opCounts(r *runCtx) map[string]int {
	c := map[string]int{"untraced": len(r.ops), "traced": len(r.tops), "setup": len(r.setup)}
	for _, o := range r.ops {
		if o.kind != "" {
			c[o.kind]++
		}
	}
	return c
}

func writeResultFile(f resultFile) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", f.Workload, f.Seed, f.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
