// Engine micro-benchmarks: the event-driven fast-forward path against the
// reference single-cycle/single-step path, on the scenarios where dead
// cycles dominate (memory-bound workloads on deep-window cores) and where
// they don't, plus the recorder-attached contest, the trace generator and
// the trace fingerprint.
// All report simulated (or generated) instructions per wall-second, and the
// fingerprint its nanoseconds per instruction. They
// are quick same-binary comparisons (`go test -run '^$' -bench
// BenchmarkEngine .`); the repository benchmark in benchmark/ is the
// calibrated, end-to-end perf ledger.
package archcontest

import (
	"testing"

	"archcontest/internal/obs"
)

func benchmarkEngineRun(b *testing.B, bench, core string, singleStep bool) {
	b.Helper()
	tr := MustGenerateTrace(bench, 100_000)
	cfg := MustPaletteCore(core)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(cfg, tr, RunOptions{SingleStep: singleStep})
		if err != nil {
			b.Fatal(err)
		}
		if r.Insts != int64(tr.Len()) {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
}

// benchmarkEngineContest times one contest of the named palette cores per
// iteration; with record set, each iteration attaches a fresh
// observability recorder.
func benchmarkEngineContest(b *testing.B, bench string, cores []string, singleStep, record bool) {
	b.Helper()
	tr := MustGenerateTrace(bench, 100_000)
	cfgs := make([]CoreConfig, len(cores))
	for i, name := range cores {
		cfgs[i] = MustPaletteCore(name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := ContestOptions{SingleStep: singleStep}
		var rec *obs.Recorder
		if record {
			rec = obs.NewRecorder(obs.Options{})
			opts.Observer = rec
		}
		r, err := ContestRun(cfgs, tr, opts)
		if err != nil {
			b.Fatal(err)
		}
		if r.Insts != int64(tr.Len()) {
			b.Fatal("incomplete run")
		}
		if rec != nil {
			rec.FinishContest(r)
			if len(rec.Events()) == 0 {
				b.Fatal("recorder attached but captured nothing")
			}
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
}

// mcf on the mcf core: the paper's most memory-bound benchmark on a
// 1024-entry-ROB core — long stalls, the fast-forward path's best case.
func BenchmarkEngineMemBound(b *testing.B)           { benchmarkEngineRun(b, "mcf", "mcf", false) }
func BenchmarkEngineMemBoundSingleStep(b *testing.B) { benchmarkEngineRun(b, "mcf", "mcf", true) }

// gcc on the gcc core: mixed behaviour, moderate stalls.
func BenchmarkEngineMixed(b *testing.B)           { benchmarkEngineRun(b, "gcc", "gcc", false) }
func BenchmarkEngineMixedSingleStep(b *testing.B) { benchmarkEngineRun(b, "gcc", "gcc", true) }

// crafty on the crafty core: high-IPC compute, few dead cycles — the
// fast-forward path's worst case (measures wake-list overhead alone).
func BenchmarkEngineCompute(b *testing.B)           { benchmarkEngineRun(b, "crafty", "crafty", false) }
func BenchmarkEngineComputeSingleStep(b *testing.B) { benchmarkEngineRun(b, "crafty", "crafty", true) }

// 2-way contested co-simulation.
var contest2 = []string{"twolf", "vpr"}

func BenchmarkEngineContest(b *testing.B) {
	benchmarkEngineContest(b, "twolf", contest2, false, false)
}
func BenchmarkEngineContestSingleStep(b *testing.B) {
	benchmarkEngineContest(b, "twolf", contest2, true, false)
}

// The same contest with the observability recorder attached: against
// BenchmarkEngineContest, the recorder-on cost.
func BenchmarkEngineContestRecorded(b *testing.B) {
	benchmarkEngineContest(b, "twolf", contest2, false, true)
}

// 4-way contested co-simulation, the repository benchmark's widest
// contest: every result-bus receiver hears three senders.
var contest4 = []string{"gcc", "mcf", "bzip", "crafty"}

func BenchmarkEngineContest4(b *testing.B) {
	benchmarkEngineContest(b, "gcc", contest4, false, false)
}
func BenchmarkEngineContest4SingleStep(b *testing.B) {
	benchmarkEngineContest(b, "gcc", contest4, true, false)
}

// BenchmarkTraceGeneration measures the synthetic workload generator and
// the resident size of the trace it encodes.
func BenchmarkTraceGeneration(b *testing.B) {
	var tr *Trace
	for i := 0; i < b.N; i++ {
		tr = MustGenerateTrace("mcf", 100_000)
		if tr.Len() != 100_000 {
			b.Fatal("short trace")
		}
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
	b.ReportMetric(float64(tr.Bytes())/float64(tr.Len()), "B/inst")
}

// BenchmarkTraceFingerprint measures Trace.Fingerprint, the content hash
// every result-cache key starts from. A fingerprint is computed once per
// trace, so each iteration hashes a fresh prefix of one generated trace,
// one instruction short of it.
func BenchmarkTraceFingerprint(b *testing.B) {
	const n = 100_000
	tr := MustGenerateTrace("mcf", n+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Prefix(n).Fingerprint()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/inst")
}
