package explore

import (
	"context"
	"testing"

	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// walkFilterOffOn runs the same walk with the fast filter off, then on.
func walkFilterOffOn(t *testing.T, tr *trace.Trace, opts Options) (off, on Result) {
	t.Helper()
	off, err := Customize(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if off.Filtered != 0 {
		t.Fatalf("filter off, yet %d candidates filtered", off.Filtered)
	}
	opts.FastFilter = true
	if on, err = Customize(context.Background(), tr, opts); err != nil {
		t.Fatal(err)
	}
	return off, on
}

// TestFastFilterCutsDetailedPreservingBest locks the fast-filter tentpole
// claim: at the default margin the filter cuts detailed simulations at
// least 3x on a lookahead walk while leaving the walk's output — the best
// configuration and its measured IPT — identical to the unfiltered run.
func TestFastFilterCutsDetailedPreservingBest(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	off, on := walkFilterOffOn(t, workload.MustGenerate("gcc", 8000), Options{Seed: 1, Steps: 40, Lookahead: 8})
	if on.Best.String() != off.Best.String() || on.BestIPT != off.BestIPT {
		t.Errorf("filter changed the outcome: best %.6f (%s) vs %.6f (%s)",
			on.BestIPT, on.Best.String(), off.BestIPT, off.Best.String())
	}
	if cut := float64(off.Detailed) / float64(on.Detailed); cut < 3.0 {
		t.Errorf("filter cut detailed simulations only %.2fx (%d -> %d), want >= 3x",
			cut, off.Detailed, on.Detailed)
	}
	if on.Detailed < on.Evaluated {
		t.Errorf("accounting: %d detailed < %d consumed evaluations", on.Detailed, on.Evaluated)
	}
}

// TestFastFilterWalkTable runs the filter over a table of short walks
// (three workloads x two walk seeds at 4000 instructions): every walk must
// keep the >= 3x detailed-simulation cut, and at most one may change its
// best configuration (at this trace length gcc with seed 7 flips).
func TestFastFilterWalkTable(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	const n, steps, lookahead = 4000, 60, 8
	walks, unchanged := 0, 0
	for _, bench := range []string{"gcc", "mcf", "twolf"} {
		tr := workload.MustGenerate(bench, n)
		for _, seed := range []uint64{1, 7} {
			off, on := walkFilterOffOn(t, tr, Options{Seed: seed, Steps: steps, Lookahead: lookahead})
			cut := float64(off.Detailed) / float64(on.Detailed)
			same := on.Best.String() == off.Best.String() && on.BestIPT == off.BestIPT
			t.Logf("%-6s seed=%d: detailed %d -> %d (%.2fx cut, %d filtered), best unchanged: %v",
				bench, seed, off.Detailed, on.Detailed, cut, on.Filtered, same)
			if cut < 3.0 {
				t.Errorf("%s seed=%d: filter cut detailed simulations only %.2fx (%d -> %d), want >= 3x",
					bench, seed, cut, off.Detailed, on.Detailed)
			}
			walks++
			if same {
				unchanged++
			}
		}
	}
	if unchanged < walks-1 {
		t.Errorf("only %d of %d walks kept their best configuration, want >= %d", unchanged, walks, walks-1)
	}
}

// A tighter margin must actually exercise the margin leg of the filter
// (candidates rejected with no detailed run at all), trading output
// stability for a deeper cut.
func TestFastFilterTightMarginFilters(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	tr := workload.MustGenerate("twolf", 8000)
	off, err := Customize(context.Background(), tr, Options{Seed: 7, Steps: 40, Lookahead: 8})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Customize(context.Background(), tr, Options{
		Seed: 7, Steps: 40, Lookahead: 8, FastFilter: true, FastMargin: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.Filtered == 0 {
		t.Error("margin 0.02 filtered no candidates")
	}
	if on.Detailed >= off.Detailed {
		t.Errorf("tight margin did not reduce detailed simulations: %d vs %d", on.Detailed, off.Detailed)
	}
}

func TestFastFilterDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	tr := workload.MustGenerate("mcf", 6000)
	opts := Options{Seed: 42, Steps: 24, Lookahead: 8, FastFilter: true, Parallelism: 1}
	a, err := Customize(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	b, err := Customize(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestIPT != b.BestIPT || a.Best.String() != b.Best.String() ||
		a.Detailed != b.Detailed || a.Filtered != b.Filtered || a.Evaluated != b.Evaluated {
		t.Errorf("filtered walk depends on parallelism: %+v vs %+v", a, b)
	}
}
