package explore

import (
	"context"
	"errors"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/resultcache"
	"archcontest/internal/workload"
	"archcontest/internal/xrand"
)

func TestCustomizeImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	tr := workload.MustGenerate("crafty", 20000)
	res, err := Customize(context.Background(), tr, Options{Seed: 1, Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestIPT <= 0 {
		t.Fatalf("best IPT %g", res.BestIPT)
	}
	if res.Evaluated < 10 {
		t.Errorf("only %d design points evaluated", res.Evaluated)
	}
	if err := res.Best.Validate(); err != nil {
		t.Errorf("best config invalid: %v", err)
	}
	if res.Best.Name != "custom-crafty" {
		t.Errorf("best config name %q", res.Best.Name)
	}
}

func TestCustomizeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	tr := workload.MustGenerate("gzip", 10000)
	a, err := Customize(context.Background(), tr, Options{Seed: 7, Steps: 15})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Customize(context.Background(), tr, Options{Seed: 7, Steps: 15})
	if err != nil {
		t.Fatal(err)
	}
	if a.BestIPT != b.BestIPT || a.Best.String() != b.Best.String() {
		t.Error("annealing not deterministic for equal seeds")
	}
}

func TestCustomizeRejectsEmpty(t *testing.T) {
	if _, err := Customize(context.Background(), nil, Options{}); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestNeighborStaysValid(t *testing.T) {
	s := defaultState()
	if !s.valid() {
		t.Fatal("default state invalid")
	}
	r := xrand.New(99)
	for i := 0; i < 2000; i++ {
		s = neighbor(s, r)
		if !s.valid() {
			t.Fatalf("neighbor produced invalid state %+v at step %d", s, i)
		}
	}
}

func TestStateParamsDerive(t *testing.T) {
	// Every menu extreme must derive into a valid core configuration when
	// the state passes its own validity check.
	s := defaultState()
	cfg, err := config.Derive(s.params("probe"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	tr := workload.MustGenerate("perl", 8000)
	calls := 0
	_, err := Customize(context.Background(), tr, Options{
		Seed: 3, Steps: 20,
		Progress: func(step int, cfg config.CoreConfig, ipt float64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("progress callback never invoked (no accepted moves in 20 steps is implausible)")
	}
}

// TestSpeculativeTrajectoryIdentical locks the tentpole determinism claim:
// for the same seed, the accepted-move trajectory, best configuration, and
// consumed-evaluation count are bit-identical for every lookahead K,
// including the sequential K=1 walk.
func TestSpeculativeTrajectoryIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	tr := workload.MustGenerate("twolf", 6000)
	type move struct {
		step int
		cfg  string
		ipt  float64
	}
	walk := func(k int) ([]move, Result) {
		var moves []move
		res, err := Customize(context.Background(), tr, Options{
			Seed: 11, Steps: 24, Lookahead: k,
			Progress: func(step int, cfg config.CoreConfig, ipt float64) {
				moves = append(moves, move{step, cfg.String(), ipt})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return moves, res
	}
	refMoves, refRes := walk(1)
	if refRes.Wasted != 0 {
		t.Fatalf("sequential walk wasted %d evaluations", refRes.Wasted)
	}
	if len(refMoves) == 0 {
		t.Fatal("no accepted moves in 24 steps (implausible)")
	}
	for _, k := range []int{4, 8} {
		moves, res := walk(k)
		if len(moves) != len(refMoves) {
			t.Fatalf("K=%d accepted %d moves, K=1 accepted %d", k, len(moves), len(refMoves))
		}
		for i := range moves {
			if moves[i] != refMoves[i] {
				t.Fatalf("K=%d move %d = %+v, K=1 has %+v", k, i, moves[i], refMoves[i])
			}
		}
		if res.Best.String() != refRes.Best.String() || res.BestIPT != refRes.BestIPT {
			t.Errorf("K=%d best differs: %.6f vs %.6f", k, res.BestIPT, refRes.BestIPT)
		}
		if res.Evaluated != refRes.Evaluated {
			t.Errorf("K=%d consumed %d evaluations, K=1 consumed %d", k, res.Evaluated, refRes.Evaluated)
		}
	}
}

// The speculative walk must also be independent of the worker count.
func TestSpeculativeParallelismIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	tr := workload.MustGenerate("vpr", 6000)
	a, err := Customize(context.Background(), tr, Options{Seed: 5, Steps: 16, Lookahead: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Customize(context.Background(), tr, Options{Seed: 5, Steps: 16, Lookahead: 6, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.BestIPT != b.BestIPT || a.Best.String() != b.Best.String() || a.Evaluated != b.Evaluated {
		t.Error("speculative annealing depends on parallelism level")
	}
}

// A result cache must change nothing about the walk, only skip re-runs.
func TestCustomizeWithCacheIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing in short mode")
	}
	tr := workload.MustGenerate("gap", 6000)
	cache, err := resultcache.Open(t.TempDir(), resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Customize(context.Background(), tr, Options{Seed: 9, Steps: 12})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Customize(context.Background(), tr, Options{Seed: 9, Steps: 12, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Customize(context.Background(), tr, Options{Seed: 9, Steps: 12, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if plain.BestIPT != cold.BestIPT || cold.BestIPT != warm.BestIPT {
		t.Error("cache changed the annealing outcome")
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("warm run hit nothing: %+v", st)
	}
}

// TestCancelledAnnealStops: a walk cancelled from inside its first
// Progress call returns the context's error and reports no further move,
// although its lookahead window holds candidates that were evaluated, or
// skipped by the pool, after the cancellation.
func TestCancelledAnnealStops(t *testing.T) {
	tr := workload.MustGenerate("gzip", 5000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, err := Customize(ctx, tr, Options{Seed: 1, Steps: 60, Lookahead: 8, Parallelism: 2,
		Progress: func(int, config.CoreConfig, float64) {
			calls++
			cancel()
		}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled walk returned %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("%d Progress calls, want exactly 1 (the cancelling one)", calls)
	}
}
