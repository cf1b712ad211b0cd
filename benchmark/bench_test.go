package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyParams shrinks every workload so the whole smoke test runs in a few
// seconds; only sizes change, never what a workload does.
func tinyParams() params {
	return params{
		engineN: 20_000, verifyN: 2_000,
		campaignN: 3_000, campaignNStep: 10,
		exploreN: 5_000, exploreSteps: 6,
		serveRate: 200, serveNMin: 2_000, serveNMax: 4_000, serveVerifyN: 1_000,
		probeN: 5_000, probeRepeats: 1,
		kernelLen: 1 << 12,
	}
}

// benchmarkFile is the layout of BENCHMARK.json.
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

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram checks that BENCHMARK.json declares
// exactly the workloads and metrics the program produces, with the same
// units, and that setup_s carries the largest bound.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] is %s (%s), the program reports %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] is %s (%s), the program reports %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at tiny scale, untraced
// and traced, and checks the result line: every declared metric with its
// unit, and no failed operation.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	units := func(traced bool) map[string]string {
		m := map[string]string{}
		if traced {
			for _, d := range bf.PerLayer {
				m[d.Name] = d.Unit
			}
		} else {
			for _, d := range bf.EndToEnd {
				m[d.Name] = d.Unit
			}
		}
		return m
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			// Round-based workloads run their two minimum rounds; serve
			// needs a window long enough to schedule runs and contests.
			seconds := 0.01
			if w.Name == "serve" {
				seconds = 1
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				b := &bench{workload: w.Name, seed: 3, seconds: seconds, workdir: t.TempDir(), p: tinyParams()}
				if traced {
					b.rec = newRecorder()
				}
				var out bytes.Buffer
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				if _, err := runOne(ctx, b, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if len(res) != 4 {
					t.Errorf("result has keys %v, want correct, attempted, failed and metrics", res)
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct %v, failed %d of %d", r.Correct, r.Failed, r.Attempted)
				}
				want := units(traced)
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := r.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %s", name, got, unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
				if traced {
					for _, suffix := range []string{".trace.json", ".layers.txt"} {
						if _, err := os.Stat(b.workdir + "/trace/" + w.Name + "-seed3" + suffix); err != nil {
							t.Error(err)
						}
					}
				}
			})
		}
	}
}

func TestCalibrated(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	// A host on which the kernel takes twice the reference time divides
	// every wall time by 2^alpha.
	for _, c := range []struct{ kernel, want float64 }{
		{refKernelSeconds, 1},
		{2 * refKernelSeconds, math.Pow(2, -calibrationAlpha)},
		{refKernelSeconds / 2, math.Pow(2, calibrationAlpha)},
	} {
		if got := calibrationFactor(c.kernel); !near(got, c.want) {
			t.Errorf("factor(%v) = %v, want %v", c.kernel, got, c.want)
		}
	}
	// An item's time is the median of its calibrated samples.
	var it itemTimes
	it.add("job", 1, 1.5)
	it.add("job", 4, 2)
	it.add("job", 6, 3)
	if got := it.median("job", true); got != 2 {
		t.Errorf("calibrated median = %v, want 2", got)
	}
	if got := it.median("job", false); got != 4 {
		t.Errorf("wall median = %v, want 4", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %v, want 4", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n, p int
		ok   bool
	}{{19, 0, false}, {20, 50, true}, {200, 95, true}, {401, 97, true}, {1000, 99, true}, {5000, 99, true}} {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.p {
			t.Errorf("n=%d: percentile %d ok %v, want %d %v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if beyond := c.n - int(v); beyond < 10 {
			t.Errorf("n=%d: p%d = %v leaves %d samples beyond, want at least 10", c.n, p, v, beyond)
		}
	}
}

func TestJudge(t *testing.T) {
	series := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	parent := series(100, 0.5) // 100..102, IQR about 1.5%
	for _, c := range []struct {
		name         string
		change       []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"faster on every pair", series(90, 0.5), false, 0.1, "gain"},
		{"higher is better", series(90, 0.5), true, 0.1, "no change"},
		{"worse past the bound", series(115, 0.5), false, 0.1, "regression"},
		{"within the bound", series(101, 0.5), false, 0.1, "no change"},
		{"spread wider than the bound", series(95, 8), false, 0.1, "unresolved"},
		{"fewer than ten pairs", series(90, 0.5)[:9], false, 0.1, "no change"},
	} {
		if j := judge(parent, c.change, c.higherBetter, c.bound); j.verdict != c.want {
			t.Errorf("%s: verdict %q (worse %.3f, wins %d/%d), want %q", c.name, j.verdict, j.worse, j.wins, j.pairs, c.want)
		}
	}
}

func TestCompareFailsOnDigestOrFailures(t *testing.T) {
	run := func(seed uint64, digest string, failed int) runOutput {
		return runOutput{
			rec: runRecord{Workload: "engine", Seed: seed, Seconds: 15, SimDigest: digest},
			res: result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{"op_ms": {Value: 100, Unit: "ms"}}},
		}
	}
	var bs benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"op_ms","unit":"ms","better":"lower","bound":0.1}]}`), &bs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		change runOutput
		ok     bool
	}{
		{"identical", run(1, "aa", 0), true},
		{"digest differs", run(1, "bb", 0), false},
		{"more failures", run(1, "aa", 1), false},
	} {
		var out bytes.Buffer
		if ok := compareRuns(bs, []runOutput{run(1, "aa", 0)}, []runOutput{c.change}, &out); ok != c.ok {
			t.Errorf("%s: ok %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
	}
}
