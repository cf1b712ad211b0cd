// Command benchmark is the repository's benchmark: it measures what users
// of the simulator wait for (set-up, simulation throughput, one unit of
// work, memory) and, in a separate traced run, the layers underneath.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload engine --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload serve --seed 2 --seconds 15 --trace 1
//	bash benchmark/run.sh -compare parent.jsonl change.jsonl
//
// Each run executes one workload (engine, components, campaign or serve)
// in its own process, checks every output it produces, and prints two JSON
// lines: a run record ({"run": ...}, with the sim_digest used for A/B
// diffs and the raw uncalibrated times) and, last, the result
// ({"correct", "attempted", "failed", "metrics"}). With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones;
// BENCHMARK.json at the repository root names both sets. See README.md.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric's name and unit as BENCHMARK.json declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Times are in calibrated units (calibrate.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"single_mips", "Minst/s"},
	{"contest_mips", "Minst/s"},
	{"op_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every workload
// with tracing on. A layer a workload never calls reports 0 for its counts
// and shares; the probe metrics (layers.go) are measured in every workload.
var perLayer = []metricDef{
	{"workload.gen_ns_per_inst", "ns"},
	{"branch.gshare.ns_per_branch", "ns"},
	{"branch.tage.ns_per_branch", "ns"},
	{"branch.bimodal.ns_per_branch", "ns"},
	{"branch.gshare.mispredict_ratio", "ratio"},
	{"branch.tage.mispredict_ratio", "ratio"},
	{"branch.bimodal.mispredict_ratio", "ratio"},
	{"cache.lru.ns_per_access", "ns"},
	{"cache.srrip.ns_per_access", "ns"},
	{"cache.random.ns_per_access", "ns"},
	{"cache.stride.ns_per_access", "ns"},
	{"cache.nextline.ns_per_access", "ns"},
	{"cache.l1_miss_ratio", "ratio"},
	{"cache.l2_miss_ratio", "ratio"},
	{"cache.stride.prefetches_per_kinst", "count"},
	{"cache.nextline.prefetches_per_kinst", "count"},
	{"pipeline.ns_per_inst", "ns"},
	{"pipeline.cycles_per_advance", "ratio"},
	{"contest.ns_per_inst.2core", "ns"},
	{"contest.ns_per_inst.4core", "ns"},
	{"contest.coupling_overhead", "ratio"},
	{"contest.lead_changes_per_kinst", "count"},
	{"contest.injected_per_kinst", "count"},
	{"invariant.verify_overhead", "ratio"},
	{"runtime.allocs_per_kinst", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace_overhead", "ratio"},
	{"op.samples", "count"},
	{"op.tail_ratio", "ratio"},
	{"workload.share", "ratio"},
	{"sim.share", "ratio"},
	{"contest.share", "ratio"},
	{"experiments.share", "ratio"},
	{"resultcache.share", "ratio"},
	{"explore.share", "ratio"},
	{"cluster.share", "ratio"},
	{"jobs.share", "ratio"},
	{"experiments.worker_idle_ratio", "ratio"},
	{"experiments.leaf_sims", "count"},
	{"experiments.leaf_contests", "count"},
	{"experiments.warm_leaf_execs", "count"},
	{"resultcache.gets", "count"},
	{"resultcache.puts", "count"},
	{"resultcache.put_bytes", "bytes"},
	{"resultcache.hit_ratio", "ratio"},
	{"explore.detailed_sims", "count"},
	{"explore.fast_filtered", "count"},
	{"fastmodel.filter_ratio", "ratio"},
	{"explore.best_ipt", "inst/ns"},
	{"cluster.sheds", "count"},
	{"cluster.reroutes", "count"},
	{"serve.backlog_max", "count"},
	{"serve.late_share", "ratio"},
	{"cluster.submit_share", "ratio"},
	{"jobs.queue_share", "ratio"},
	{"jobs.run_share", "ratio"},
}

// spanLayers are the layers whose self-time share of the traced wall is a
// per-layer metric ("<layer>.share").
var spanLayers = []string{"workload", "sim", "contest", "experiments", "resultcache", "explore", "cluster", "jobs"}

// workloadOnly are the per-layer counts and ratios of layers that only the
// campaign or the serve workload calls; the other workloads report 0.
var workloadOnly = []string{
	"experiments.worker_idle_ratio", "experiments.leaf_sims", "experiments.leaf_contests",
	"experiments.warm_leaf_execs", "resultcache.gets", "resultcache.puts",
	"resultcache.put_bytes", "resultcache.hit_ratio", "explore.detailed_sims",
	"explore.fast_filtered", "fastmodel.filter_ratio", "explore.best_ipt",
	"cluster.sheds", "cluster.reroutes", "serve.backlog_max", "serve.late_share",
	"cluster.submit_share", "jobs.queue_share", "jobs.run_share",
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"engine":     func(ctx context.Context, b *bench) error { return runEngine(ctx, b, false) },
	"components": func(ctx context.Context, b *bench) error { return runEngine(ctx, b, true) },
	"campaign":   runCampaign,
	"serve":      runServe,
}

// timed is a measured time in calibrated seconds with its raw wall seconds.
type timed struct{ cal, wall float64 }

// bench is the state of one run: its settings, the calibration samples,
// the operation tally and the measurements the workload produced.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	workdir  string
	p        params

	cal *calibrator
	rec *recorder // nil unless tracing
	// pending holds the samples taken since the last kernel sample,
	// lastKernel, until mark calibrates them.
	pending    []pendingSample
	lastKernel float64

	attempted, failed int
	problems          []string
	digest            []byte

	// setups holds the set-up repeats; ops the items one operation is made
	// of (engine jobs, campaign experiments, serve jobs), for the run
	// record; singles and contests the single-run and contest items whose
	// medians, summed, simulate singleInsts and contestInsts instructions.
	setups, ops, singles, contests itemTimes
	singleInsts, contestInsts      float64
	// op is one operation as the workload estimates it, and opSamples the
	// per-operation samples behind the per-layer count and tail ratio.
	op        timed
	opSamples []float64
	// roundWalls and tracedRoundWalls are the walls of untraced and traced
	// rounds (serve: the median job latency of each pass); tracedWall sums
	// the traced measurement windows.
	roundWalls, tracedRoundWalls []float64
	tracedWall                   float64
	heapLiveBytes                uint64
	layer                        map[string]float64
}

type pendingSample struct {
	times *itemTimes
	item  string
	wall  float64
}

// add records a wall-time sample of item, to be calibrated at the next mark.
func (b *bench) add(t *itemTimes, item string, wall float64) {
	b.pending = append(b.pending, pendingSample{t, item, wall})
}

// mark samples the kernel and calibrates every sample added since the
// previous mark with the mean of the two kernel samples around them.
func (b *bench) mark() {
	k := b.cal.sample()
	f := calibrationFactor((b.lastKernel + k) / 2)
	for _, p := range b.pending {
		p.times.add(p.item, p.wall, p.wall*f)
	}
	b.pending, b.lastKernel = nil, k
}

// check counts one operation, failed unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
}

// setupRepeats is how many times a run repeats its set-up step; setup_s
// is the median. Seven, not three, because serve's set-up takes about a
// millisecond and its median of three spread by a third between runs.
const setupRepeats = 7

// setup runs the workload's set-up step setupRepeats times. fn must leave
// the state of its last call in place for the run.
func (b *bench) setup(fn func() error) error {
	b.mark()
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.add(&b.setups, "setup", time.Since(start).Seconds())
		b.mark()
	}
	return nil
}

// minRounds is the fewest measured rounds a round-based workload runs,
// whatever the window: two, so round-to-round equality is checked and a
// traced run has one traced and one untraced round.
const minRounds = 2

// rounds runs fn until the measurement window has passed and at least
// minRounds rounds have run, marking the calibration kernel after every
// round (the set-up's last mark precedes the first). When tracing, odd
// rounds are traced and even rounds are not, so the ratio of their median
// walls is the tracing overhead; fn gets the round's recorder (nil when
// untraced) and its root span. Only untraced rounds feed the end-to-end
// metrics.
func (b *bench) rounds(fn func(r int, rec *recorder, root int) error) error {
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < b.seconds; r++ {
		rec := b.rec.when(r%2 == 1)
		root := rec.begin(0, "benchmark", fmt.Sprintf("round %d", r), fmt.Sprintf("r%d", r))
		t := time.Now()
		if err := fn(r, rec, root); err != nil {
			return err
		}
		wall := time.Since(t).Seconds()
		rec.end(root)
		b.mark()
		if rec != nil {
			b.tracedRoundWalls = append(b.tracedRoundWalls, wall)
			b.tracedWall += wall
		} else {
			b.roundWalls = append(b.roundWalls, wall)
		}
	}
	return nil
}

// measureHeap forces a collection and records the live heap.
func (b *bench) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapLiveBytes = ms.HeapAlloc
}

// peakRSSBytes reads VmHWM, the peak resident set, from /proc/self/status.
func peakRSSBytes() (uint64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is the line before the result: what ran and the values that
// are printed for information or A/B diffing but not gated.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	SimDigest string             `json:"sim_digest"`
	KernelRef float64            `json:"kernel_ref_s"`
	Alpha     float64            `json:"alpha"`
	Raw       map[string]float64 `json:"raw"`
	// Items holds the untraced wall samples of every item an operation is
	// made of, and KernelSamples the kernel samples, in seconds.
	Items         map[string][]float64 `json:"item_walls_s"`
	KernelSamples []float64            `json:"kernel_samples_s"`
}

// endToEndMetrics turns the run's measurements into the end-to-end metrics
// and the raw wall values printed beside them.
func (b *bench) endToEndMetrics() (map[string]float64, map[string]float64, error) {
	single := timed{b.singles.total(true), b.singles.total(false)}
	contest := timed{b.contests.total(true), b.contests.total(false)}
	if b.op.cal <= 0 || single.cal <= 0 || contest.cal <= 0 {
		return nil, nil, fmt.Errorf("no untraced operations, single runs or contests were measured")
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{
		"setup_s":      b.setups.median("setup", true),
		"single_mips":  b.singleInsts / 1e6 / single.cal,
		"contest_mips": b.contestInsts / 1e6 / contest.cal,
		"op_ms":        b.op.cal * 1e3,
		"peak_rss_mb":  float64(rss) / (1 << 20),
		"heap_live_mb": float64(b.heapLiveBytes) / (1 << 20),
	}
	raw := map[string]float64{
		"setup_wall_s":      b.setups.median("setup", false),
		"op_wall_ms":        b.op.wall * 1e3,
		"single_wall_mips":  b.singleInsts / 1e6 / single.wall,
		"contest_wall_mips": b.contestInsts / 1e6 / contest.wall,
		"op_samples":        float64(len(b.opSamples)),
		"kernel_median_s":   median(b.cal.samples),
	}
	return m, raw, nil
}

// perLayerMetrics completes the workload's per-layer metrics with the ones
// every run derives the same way: span shares, tracing overhead, operation
// samples and the collector's CPU share.
func (b *bench) perLayerMetrics() map[string]float64 {
	m := b.layer
	shares := map[string]float64{}
	for _, row := range b.rec.layers(b.tracedWall) {
		shares[row.Layer] = row.Share
	}
	for _, l := range spanLayers {
		m[l+".share"] = shares[l]
	}
	for _, name := range workloadOnly {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
	if len(b.roundWalls) > 0 && len(b.tracedRoundWalls) > 0 {
		m["trace_overhead"] = median(b.tracedRoundWalls) / median(b.roundWalls)
	}
	m["op.samples"] = float64(len(b.opSamples))
	m["op.tail_ratio"] = 0
	if _, tail, ok := tailPercentile(b.opSamples); ok {
		m["op.tail_ratio"] = tail / median(b.opSamples)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.gc_cpu_fraction"] = ms.GCCPUFraction
	return m
}

// report assembles the result from the named metric set, refusing a value
// that is missing, not finite, or not declared.
func report(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// runOne executes one workload and writes its record and result lines to w.
func runOne(ctx context.Context, b *bench, w io.Writer) (*result, error) {
	run, ok := workloads[b.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (engine, components, campaign or serve)", b.workload)
	}
	if err := os.MkdirAll(filepath.Join(b.workdir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	b.cal = newCalibrator(b.p.kernelLen)
	b.layer = map[string]float64{}
	if err := run(ctx, b); err != nil {
		return nil, fmt.Errorf("%s: %w", b.workload, err)
	}
	for _, p := range b.problems {
		log.Printf("check failed: %s", p)
	}
	rec := runRecord{
		Workload: b.workload, Seed: b.seed, Seconds: b.seconds,
		SimDigest: hex.EncodeToString(b.digest),
		KernelRef: refKernelSeconds, Alpha: calibrationAlpha,
		Items: b.ops.walls(), KernelSamples: b.cal.samples,
	}
	e2e, raw, err := b.endToEndMetrics()
	if err != nil {
		return nil, err
	}
	rec.Raw = raw
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if b.rec == nil {
		res.Metrics, err = report(endToEnd, e2e)
	} else {
		rec.Trace = 1
		res.Metrics, err = report(perLayer, b.perLayerMetrics())
		if err == nil {
			err = b.writeTrace()
		}
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operations were attempted")
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]runRecord{"run": rec}); err != nil {
		return nil, err
	}
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return res, nil
}

// writeTrace writes the Chrome trace and the per-layer table of a traced run
// under workdir/trace, and prints the table to standard error.
func (b *bench) writeTrace() error {
	dir := filepath.Join(b.workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := b.rec.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	var table strings.Builder
	writeTable(&table, b.rec.layers(b.tracedWall), b.tracedWall)
	fmt.Fprint(os.Stderr, table.String())
	return os.WriteFile(base+".layers.txt", []byte(table.String()), 0o644)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	workloadName := flag.String("workload", "", "workload to run: engine, components, campaign or serve")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	workdir := flag.String("workdir", ".bench_build", "directory for temporary result caches and trace files")
	compare := flag.Bool("compare", false, "compare two files of run output: -compare PARENT CHANGE")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs two files: PARENT CHANGE")
		}
		ok, err := compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		log.Fatalf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		log.Fatalf("--seconds must be positive, got %v", *seconds)
	}
	b := &bench{
		workload: *workloadName, seed: *seed, seconds: *seconds,
		workdir: *workdir, p: defaultParams,
	}
	if *traceFlag == 1 {
		b.rec = newRecorder()
	}
	// A run must end within 180 s; the timeout leaves room to report.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	_, err := runOne(ctx, b, os.Stdout)
	cancel()
	if err != nil {
		log.Fatal(err)
	}
}
