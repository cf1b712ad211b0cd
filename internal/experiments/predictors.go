package experiments

import (
	"context"
	"fmt"

	"archcontest/internal/branch"
	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/sim"
)

// Predictors evaluates branch-predictor diversity as a contest axis. The
// paper's heterogeneity is structural (width, window, caches, clock); the
// predictor palette adds a behavioural axis: each benchmark's own core with
// its default gshare predictor faces the same core re-equipped with TAGE,
// stand-alone and contested against each other. The workloads' interleaved
// branch sites compose histories longer than gshare's window, which TAGE's
// geometric history tables capture.
func Predictors(ctx context.Context, l *Lab) (*Table, error) {
	t := &Table{
		ID:    "Extension: predictor diversity",
		Title: "gshare vs TAGE on the own core, stand-alone and as the only contest axis",
		Header: []string{"benchmark", "gshare IPT", "gshare mispred", "TAGE IPT", "TAGE mispred",
			"TAGE speedup", "contest IPT", "contest vs best single"},
	}
	benches := []string{"bzip", "crafty", "gcc", "perl", "twolf"}
	// Leg 3b is benchmark b's gshare run, 3b+1 its TAGE run, 3b+2 their
	// contest. The gshare leg logs regions, so it is the matrix's own-core
	// leaf (logging changes no statistic).
	type leg struct{ ipt, mispred float64 }
	legs, err := gather(ctx, l, 3*len(benches), func(i int) (leg, error) {
		bench := benches[i/3]
		cfgG := config.MustPaletteCore(bench)
		cfgT := cfgG
		cfgT.Name = bench + "-tage"
		cfgT.Predictor = branch.DefaultTAGEConfig()
		if i%3 == 2 {
			con, err := l.ContestConfigs(ctx, bench, []config.CoreConfig{cfgG, cfgT}, contest.Options{})
			return leg{ipt: con.IPT()}, err
		}
		cfg, opts := cfgG, sim.RunOptions{LogRegions: true}
		if i%3 == 1 {
			cfg, opts = cfgT, sim.RunOptions{}
		}
		r, err := l.RunOn(ctx, bench, cfg, opts)
		return leg{r.IPT(), r.Stats.MispredictRate()}, err
	})
	if err != nil {
		return nil, err
	}
	wins := 0
	for b, bench := range benches {
		rg, rt, con := legs[3*b], legs[3*b+1], legs[3*b+2]
		if rt.ipt > rg.ipt {
			wins++
		}
		best := max(rg.ipt, rt.ipt)
		t.AddRow(bench, f2(rg.ipt), pct(rg.mispred), f2(rt.ipt), pct(rt.mispred),
			pct(rt.ipt/rg.ipt-1), f2(con.ipt), pct(con.ipt/best-1))
	}
	t.AddNote("TAGE beats gshare stand-alone on %d/%d benchmarks; the contest of the two variants tracks the better predictor per phase", wins, len(benches))
	t.AddNote("predictor-only heterogeneity: both contestants share every structural parameter, so any contest gain is behavioural")
	return t, nil
}

// StateCost sweeps the cost of transferring microarchitectural state at
// kill-refork points from free to OS-migration scale, following the
// state-transfer-aware heterogeneous-multicore literature in making warm-up
// a first-class cost. Each reforked core pays the swept warm-up interval
// and restarts with cold predictor tables and invalidated caches; the table
// shows where the contesting-wins crossover moves as the cost grows.
func StateCost(ctx context.Context, l *Lab) (*Table, error) {
	warmups := []float64{0, 500, 2000, 5000, 10000, 20000}
	// One exception per 50000 instructions at full trace length; shortened
	// traces (-n below 200000) scale the interval down so at least a few
	// barriers fire and the sweep keeps its shape instead of degenerating
	// to the exception-free column.
	every := int64(50000)
	if n := int64(l.N()) / 4; n < every {
		every = n
	}
	t := &Table{
		ID:    "Extension: state-transfer cost",
		Title: fmt.Sprintf("contesting speedup over own core vs kill-refork state-transfer warm-up (exceptions every %d instructions)", every),
	}
	t.Header = []string{"benchmark", "refork state", "no exceptions"}
	for _, w := range warmups {
		t.Header = append(t.Header, fmt.Sprintf("warmup %gns", w))
	}
	// Option set 0 is the exception-free best pair; then the warm sweep, then
	// the cold one.
	opts := []contest.Options{{}}
	for _, cold := range []bool{false, true} {
		for _, w := range warmups {
			opts = append(opts, contest.Options{
				ExceptionEvery:      every,
				ExceptionKillRefork: true,
				ReforkWarmupNs:      w,
				ReforkColdPredictor: cold,
				ReforkColdCaches:    cold,
			})
		}
	}
	benches := []string{"gcc", "twolf"}
	sweep, err := l.bestPairSweep(ctx, benches, opts)
	if err != nil {
		return nil, err
	}
	for b, bench := range benches {
		own, err := l.OwnCoreIPT(ctx, bench)
		if err != nil {
			return nil, err
		}
		for s, state := range []string{"warm", "cold"} {
			row := []string{bench, state, pct(sweep[b][0].IPT()/own - 1)}
			crossover := "none within the sweep"
			for i, r := range sweep[b][1+s*len(warmups) : 1+(s+1)*len(warmups)] {
				sp := r.IPT()/own - 1
				row = append(row, pct(sp))
				if sp <= 0 && crossover == "none within the sweep" {
					crossover = fmt.Sprintf("%gns", warmups[i])
				}
			}
			t.AddRow(row...)
			t.AddNote("%s %s-state: contesting stops beating the own core at warm-up %s", bench, state, crossover)
		}
	}
	t.AddNote("warm rows charge only the swept warm-up interval per reforked core; cold rows also reset predictors and invalidate caches, which shifts the crossover earlier but perturbs timing dynamics enough that their speedups need not fall monotonically")
	t.AddNote("at zero warm-up only the kill-refork penalty itself is paid; the sweep isolates how much state-transfer cost the contesting advantage absorbs before the crossover")
	return t, nil
}
