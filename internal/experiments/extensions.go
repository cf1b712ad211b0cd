package experiments

import (
	"context"

	"fmt"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/migrate"
	"archcontest/internal/power"
	"archcontest/internal/sim"
)

// Migration compares architectural contesting against the migrational
// baseline the paper motivates against: oracle-policy thread migration
// between the same two cores at several granularities, paying realistic
// migration costs (state transfer, drain/refill, cold destination caches).
// Even with a perfect phase oracle, fine-grain migration drowns in
// overheads that contesting does not pay.
func Migration(ctx context.Context, l *Lab) (*Table, error) {
	grans := []int{20, 80, 320, 1280, 5120, 20480}
	t := &Table{
		ID:    "Extension: migration baseline",
		Title: "oracle migration at several granularities vs contesting (speedup over own core)",
	}
	t.Header = []string{"benchmark"}
	for _, g := range grans {
		t.Header = append(t.Header, fmt.Sprintf("mig@%d", g))
	}
	t.Header = append(t.Header, "contesting")
	benches := []string{"bzip", "gcc", "twolf", "gzip"}
	bests, err := l.bestPairs(ctx, benches)
	if err != nil {
		return nil, err
	}
	for b, bench := range benches {
		own, err := l.OwnCoreIPT(ctx, bench)
		if err != nil {
			return nil, err
		}
		best := bests[b]
		runs, err := l.Runs(ctx, bench)
		if err != nil {
			return nil, err
		}
		var ra, rb sim.Result
		var ca, cb config.CoreConfig
		for i, c := range l.Cores() {
			if c.Name == best.Cores[0] {
				ra, ca = runs[i], c
			}
			if c.Name == best.Cores[1] {
				rb, cb = runs[i], c
			}
		}
		row := []string{bench}
		for _, g := range grans {
			mr, err := migrate.OracleMigration(ra, rb, ca, cb, migrate.Options{Granularity: g})
			if err != nil {
				return nil, err
			}
			row = append(row, pct(mr.IPT()/own-1))
		}
		row = append(row, pct(best.IPT()/own-1))
		t.AddRow(row...)
	}
	t.AddNote("migration uses the same pair as contesting and a perfect phase oracle, yet pays transfer, drain, and cold-cache costs per switch")
	t.AddNote("paper Section 2/3: previously proposed approaches adjust at a few thousand instructions at best, far above the fine-grain potential")
	return t, nil
}

// Power quantifies the energy cost of contesting: redundant execution burns
// roughly one extra core's worth of energy for the single-thread speedup,
// which is why the paper positions contesting as a need-to-have execution
// mode rather than a default.
func Power(ctx context.Context, l *Lab) (*Table, error) {
	t := &Table{
		ID:    "Extension: energy",
		Title: "energy and energy-delay of own-core execution vs 2-way contesting",
		Header: []string{"benchmark", "own mJ", "own W", "contest mJ", "contest W",
			"energy ratio", "speedup", "EDP ratio"},
	}
	benches := []string{"bzip", "gcc", "twolf", "crafty"}
	bests, err := l.bestPairs(ctx, benches)
	if err != nil {
		return nil, err
	}
	for b, bench := range benches {
		runs, err := l.Runs(ctx, bench)
		if err != nil {
			return nil, err
		}
		var ownRun sim.Result
		var ownCfg config.CoreConfig
		for i, c := range l.Cores() {
			if c.Name == bench {
				ownRun, ownCfg = runs[i], c
			}
		}
		eo := power.SingleRun(ownCfg, ownRun)
		best := bests[b]
		cfgs := []config.CoreConfig{
			config.MustPaletteCore(best.Cores[0]),
			config.MustPaletteCore(best.Cores[1]),
		}
		ec := power.ContestRun(cfgs, best)
		t.AddRow(bench,
			fmt.Sprintf("%.2f", eo.TotalNJ()/1e6), fmt.Sprintf("%.1f", eo.AvgPowerW()),
			fmt.Sprintf("%.2f", ec.TotalNJ()/1e6), fmt.Sprintf("%.1f", ec.AvgPowerW()),
			fmt.Sprintf("%.2fx", ec.TotalNJ()/eo.TotalNJ()),
			pct(best.IPT()/ownRun.IPT()-1),
			fmt.Sprintf("%.2fx", ec.EDP()/eo.EDP()))
	}
	t.AddNote("contesting trades ~2x energy for the single-thread speedup; the paper engages it on a need-to-have basis")
	return t, nil
}

// NWay contests three core types at once (the implementation is
// generalized for N-way, the paper evaluates 2-way) and compares against
// the 2-way result.
func NWay(ctx context.Context, l *Lab) (*Table, error) {
	t := &Table{
		ID:     "Extension: 3-way contesting",
		Title:  "2-way vs 3-way contesting (third core from HET-D)",
		Header: []string{"benchmark", "own core", "2-way", "3-way", "3-way cores", "saturated"},
	}
	m, d, err := l.designSet(ctx)
	if err != nil {
		return nil, err
	}
	third := m.CoreNames(d.HetD)
	benches := []string{"bzip", "gcc", "twolf", "gzip"}
	bests, err := l.bestPairs(ctx, benches)
	if err != nil {
		return nil, err
	}
	r3s, err := gather(ctx, l, len(benches), func(b int) (contest.Result, error) {
		// Add the first HET-D core type not already in the pair.
		cores := append([]string(nil), bests[b].Cores...)
		for _, c := range third {
			if c != cores[0] && c != cores[1] {
				cores = append(cores, c)
				break
			}
		}
		return l.Contest(ctx, benches[b], cores, contest.Options{})
	})
	if err != nil {
		return nil, err
	}
	for b, bench := range benches {
		own, err := l.OwnCoreIPT(ctx, bench)
		if err != nil {
			return nil, err
		}
		r3 := r3s[b]
		sat := "-"
		for i, s := range r3.Saturated {
			if s {
				if sat == "-" {
					sat = ""
				}
				sat += r3.Cores[i] + " "
			}
		}
		t.AddRow(bench, f2(own), f2(bests[b].IPT()), f2(r3.IPT()), fmt.Sprint(r3.Cores), sat)
	}
	t.AddNote("a third core helps only when it wins regions neither pair member wins; its GRB traffic is otherwise free performance-wise but costs energy")
	return t, nil
}

// Exceptions compares the paper's parallelized redundant-thread-aware
// exception handler against terminate-and-refork at several exception
// rates (Section 4.3).
func Exceptions(ctx context.Context, l *Lab) (*Table, error) {
	intervals := []int64{50_000, 10_000, 2_000}
	t := &Table{
		ID:    "Extension: exceptions",
		Title: "contest IPT vs synchronous-exception rate, parallelized handler vs terminate-and-refork",
	}
	t.Header = []string{"benchmark", "no exceptions"}
	opts := []contest.Options{{}}
	for _, iv := range intervals {
		t.Header = append(t.Header, fmt.Sprintf("par@%d", iv), fmt.Sprintf("refork@%d", iv))
		opts = append(opts, contest.Options{ExceptionEvery: iv},
			contest.Options{ExceptionEvery: iv, ExceptionKillRefork: true})
	}
	benches := []string{"gcc", "twolf"}
	sweep, err := l.bestPairSweep(ctx, benches, opts)
	if err != nil {
		return nil, err
	}
	for b, bench := range benches {
		row := []string{bench}
		for _, r := range sweep[b] {
			row = append(row, f2(r.IPT()))
		}
		t.AddRow(row...)
	}
	t.AddNote("the parallelized handler coordinates sleeping handlers via a semaphore; terminate-and-refork pays a per-core refork penalty, as Section 4.3 argues")
	return t, nil
}
