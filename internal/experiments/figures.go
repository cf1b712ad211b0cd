package experiments

import (
	"context"

	"fmt"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/merit"
	"archcontest/internal/sim"
)

// Experiment computes one paper table or figure.
type Experiment func(ctx context.Context, l *Lab) (*Table, error)

// Registry maps experiment IDs to their drivers.
var Registry = map[string]Experiment{
	"fig1":             Figure1,
	"fig6":             Figure6,
	"fig7":             Figure7,
	"fig8":             Figure8,
	"table1":           Table1,
	"fig9":             Figure9,
	"fig10":            Figure10,
	"fig11":            Figure11,
	"fig12":            Figure12,
	"fig13":            Figure13,
	"appendixA":        AppendixA,
	"appendixAConfigs": AppendixAConfigs,
	"ablationQueue":    AblationStoreQueue,
	"ablationLag":      AblationMaxLag,
	"ablationTrain":    AblationTrainOnInject,
	"migration":        Migration,
	"power":            Power,
	"nway":             NWay,
	"exceptions":       Exceptions,
	"predictors":       Predictors,
	"statecost":        StateCost,
	"leaderboard":      Leaderboard,
}

// RegistryOrder lists the experiments in presentation order.
var RegistryOrder = []string{
	"fig1", "fig6", "fig7", "fig8", "table1", "fig9",
	"fig10", "fig11", "fig12", "fig13", "appendixA", "appendixAConfigs",
	"ablationQueue", "ablationLag", "ablationTrain",
	"migration", "power", "nway", "exceptions",
	"predictors", "statecost", "leaderboard",
}

// Figure1 reproduces the Section 2 motivation study: the oracle speedup of
// switching between the best two configurations at every power-of-two
// granularity, per benchmark, over the benchmark's own customized core.
func Figure1(ctx context.Context, l *Lab) (*Table, error) {
	t := &Table{
		ID:    "Figure 1",
		Title: "oracle switching speedup between two configurations vs granularity (over own customized core)",
	}
	type series struct {
		bench  string
		points map[int]float64
		finest string
	}
	if _, err := l.Matrix(ctx); err != nil {
		return nil, err
	}
	var all []series
	var grans []int
	for _, bench := range l.Benchmarks() {
		study, err := l.Study(ctx, bench)
		if err != nil {
			return nil, err
		}
		pts, err := study.Sweep(sim.RegionSize)
		if err != nil {
			return nil, err
		}
		s := series{bench: bench, points: map[int]float64{}}
		for _, p := range pts {
			s.points[p.Granularity] = p.Best.Speedup
		}
		if len(pts) > 0 {
			b := pts[0].Best
			s.finest = fmt.Sprintf("%s+%s", study.Names[b.A], study.Names[b.B])
		}
		if len(grans) == 0 {
			for _, p := range pts {
				grans = append(grans, p.Granularity)
			}
		}
		all = append(all, s)
	}
	t.Header = append([]string{"granularity"}, l.Benchmarks()...)
	t.Header = append(t.Header, "average")
	for _, g := range grans {
		row := []string{fmt.Sprintf("%d", g)}
		sum, n := 0.0, 0
		for _, s := range all {
			v, ok := s.points[g]
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, pct(v))
			sum += v
			n++
		}
		if n > 0 {
			row = append(row, pct(sum/float64(n)))
		}
		t.AddRow(row...)
	}
	// Paper-shape notes: fine-grain potential vs the ~1280-instruction knee.
	fine, knee := 0.0, 0.0
	for _, s := range all {
		fine += s.points[grans[0]]
		k := 1280
		for _, g := range grans {
			if g >= 1280 {
				k = g
				break
			}
		}
		knee += s.points[k]
	}
	n := float64(len(all))
	t.AddNote("average oracle speedup at %d instructions: %s; at >=1280 instructions: %s (paper: ~25%% fine-grain vs ~5%% at the knee)",
		grans[0], pct(fine/n), pct(knee/n))
	for _, s := range all {
		t.AddNote("%s best fine-grain pair: %s", s.bench, s.finest)
	}
	return t, nil
}

// Figure6 reproduces the headline result: 2-way contesting between the best
// pair of customized cores vs the benchmark's own customized core.
func Figure6(ctx context.Context, l *Lab) (*Table, error) {
	t := &Table{
		ID:     "Figure 6",
		Title:  "IPT of 2-way contesting vs own customized core (1ns core-to-core latency)",
		Header: []string{"benchmark", "own core IPT", "contest IPT", "contested pair", "speedup", "lead changes"},
	}
	benches := l.Benchmarks()
	bests, err := l.bestPairs(ctx, benches)
	if err != nil {
		return nil, err
	}
	var sum, max float64
	maxBench := ""
	for b, bench := range benches {
		own, err := l.OwnCoreIPT(ctx, bench)
		if err != nil {
			return nil, err
		}
		best := bests[b]
		sp := best.IPT()/own - 1
		sum += sp
		if sp > max {
			max, maxBench = sp, bench
		}
		t.AddRow(bench, f2(own), f2(best.IPT()),
			fmt.Sprintf("%s+%s", best.Cores[0], best.Cores[1]), pct(sp),
			fmt.Sprintf("%d", best.LeadChanges))
	}
	n := float64(len(benches))
	t.AddNote("average speedup %s, maximum %s (%s); paper: average 15%%, maximum 25%% (gcc)",
		pct(sum/n), pct(max), maxBench)
	return t, nil
}

// Figure7 isolates the contribution of L2-cache heterogeneity: each
// benchmark is contested between two copies of one best-pair core that
// differ only in their L2 (configuration and access latency), both ways,
// and the better trial is compared to the full heterogeneous speedup.
func Figure7(ctx context.Context, l *Lab) (*Table, error) {
	t := &Table{
		ID:     "Figure 7",
		Title:  "contribution of L2 heterogeneity to the contesting speedup",
		Header: []string{"benchmark", "full heterogeneity", "L2-only", "L2 share"},
	}
	benches := l.Benchmarks()
	bests, err := l.bestPairs(ctx, benches)
	if err != nil {
		return nil, err
	}
	// Trial 2b+k contests benchmark b's best pair core k against a copy of
	// itself that has the other core's L2.
	trials, err := gather(ctx, l, 2*len(benches), func(i int) (contest.Result, error) {
		cores := bests[i/2].Cores
		self := config.MustPaletteCore(cores[i%2])
		other := config.MustPaletteCore(cores[1-i%2])
		return l.ContestConfigs(ctx, benches[i/2], []config.CoreConfig{self, self.WithL2(other)}, contest.Options{})
	})
	if err != nil {
		return nil, err
	}
	for b, bench := range benches {
		own, err := l.OwnCoreIPT(ctx, bench)
		if err != nil {
			return nil, err
		}
		full := bests[b].IPT()/own - 1
		l2Best := 0.0
		for _, r := range trials[2*b : 2*b+2] {
			if sp := r.IPT()/own - 1; sp > l2Best {
				l2Best = sp
			}
		}
		share := 0.0
		if full > 0 {
			share = l2Best / full
			if share > 1 {
				share = 1
			}
		}
		t.AddRow(bench, pct(full), pct(l2Best), pct(share))
	}
	t.AddNote("paper: for most benchmarks only a minor portion of the speedup is attributable to L2 heterogeneity alone")
	t.AddNote("an L2-swapped hybrid can outperform every palette core outright (e.g. a fast core grafted with a 4MB L2 on a memory-bound benchmark), so for memory-bound benchmarks the L2-only trial saturates its share — our matrix is more L2-capacity-dominated than the paper's")
	return t, nil
}

// Figure8 sweeps the core-to-core latency for each benchmark's best pair.
func Figure8(ctx context.Context, l *Lab) (*Table, error) {
	latencies := []float64{1, 2, 5, 10, 100}
	t := &Table{
		ID:    "Figure 8",
		Title: "contesting speedup over own customized core vs core-to-core latency",
	}
	t.Header = []string{"benchmark"}
	for _, lat := range latencies {
		t.Header = append(t.Header, fmt.Sprintf("%gns", lat))
	}
	opts := make([]contest.Options, len(latencies))
	for i, lat := range latencies {
		opts[i] = contest.Options{LatencyNs: lat}
	}
	sweep, err := l.bestPairSweep(ctx, l.Benchmarks(), opts)
	if err != nil {
		return nil, err
	}
	avg := make([]float64, len(latencies))
	for b, bench := range l.Benchmarks() {
		own, err := l.OwnCoreIPT(ctx, bench)
		if err != nil {
			return nil, err
		}
		row := []string{bench}
		for i, r := range sweep[b] {
			sp := r.IPT()/own - 1
			row = append(row, pct(sp))
			avg[i] += sp
		}
		t.AddRow(row...)
	}
	row := []string{"average"}
	n := float64(len(l.Benchmarks()))
	for _, a := range avg {
		row = append(row, pct(a/n))
	}
	t.AddRow(row...)
	t.AddNote("paper: average decays from ~15%% at 1ns to ~6%% at 100ns; sensitivity differs per benchmark")
	return t, nil
}

// designSet derives the paper's CMP designs from the lab's matrix.
func (l *Lab) designSet(ctx context.Context) (*merit.Matrix, merit.PaperDesigns, error) {
	m, err := l.Matrix(ctx)
	if err != nil {
		return nil, merit.PaperDesigns{}, err
	}
	d, err := m.DerivePaperDesigns()
	return m, d, err
}

// Table1 reproduces the five CMP designs and their harmonic-mean IPT.
func Table1(ctx context.Context, l *Lab) (*Table, error) {
	m, d, err := l.designSet(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table 1",
		Title:  "CMP designs and their performance (harmonic mean of best-core IPT)",
		Header: []string{"design", "figure of merit", "constituent core types", "harmonic-mean IPT"},
	}
	row := func(ds merit.Design, meritName string) {
		t.AddRow(ds.Name, meritName, fmt.Sprint(m.CoreNames(ds)), f2(m.HarmonicMeanBest(ds.Cores)))
	}
	row(d.HetA, "avg")
	row(d.HetB, "har")
	row(d.HetC, "cw-har")
	row(d.Hom, "avg or har")
	row(d.HetAll, "n/a (all cores)")
	hom := m.HarmonicMeanBest(d.Hom.Cores)
	all := m.HarmonicMeanBest(d.HetAll.Cores)
	hetB := m.HarmonicMeanBest(d.HetB.Cores)
	t.AddNote("HET-ALL over HOM: %s (paper: ~34%%); best two-type over HOM: %s (paper: ~19%%)",
		pct(all/hom-1), pct(hetB/hom-1))
	return t, nil
}

// Figure9 reports per-benchmark IPT on the five CMP designs (each benchmark
// on its most suitable available core).
func Figure9(ctx context.Context, l *Lab) (*Table, error) {
	m, d, err := l.designSet(ctx)
	if err != nil {
		return nil, err
	}
	designs := []merit.Design{d.HetA, d.HetB, d.HetC, d.Hom, d.HetAll}
	t := &Table{
		ID:     "Figure 9",
		Title:  "IPT per benchmark on the most suitable core of each CMP design",
		Header: []string{"benchmark", "HET-A", "HET-B", "HET-C", "HOM", "HET-ALL"},
	}
	for b, bench := range m.Benchmarks {
		row := []string{bench}
		for _, ds := range designs {
			_, ipt := m.BestIn(b, ds.Cores)
			row = append(row, f2(ipt))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// contestedDesign is the shared driver of Figures 10, 11, and 12: per
// benchmark, IPT on HOM, on the design's best core without contesting, and
// contested between the design's two core types.
func contestedDesign(ctx context.Context, l *Lab, id string, pick func(merit.PaperDesigns) merit.Design) (*Table, error) {
	m, d, err := l.designSet(ctx)
	if err != nil {
		return nil, err
	}
	ds := pick(d)
	pair := m.CoreNames(ds)
	if len(pair) != 2 {
		return nil, fmt.Errorf("experiments: design %s has %d core types, want 2", ds.Name, len(pair))
	}
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("%s (%s + %s): HOM vs no contesting vs contesting", ds.Name, pair[0], pair[1]),
		Header: []string{"benchmark", "HOM", ds.Name + " no-contest", ds.Name + " contest",
			"contest speedup", "saturated"},
	}
	benches := l.Benchmarks()
	contests, err := gather(ctx, l, len(benches), func(i int) (contest.Result, error) {
		return l.Contest(ctx, benches[i], pair, contest.Options{})
	})
	if err != nil {
		return nil, err
	}
	var sumSp, maxSp, sumHom, sumNo, sumCon float64
	maxBench := ""
	recovered := []string{}
	for i, bench := range benches {
		b, err := m.BenchIndex(bench)
		if err != nil {
			return nil, err
		}
		_, hom := m.BestIn(b, d.Hom.Cores)
		_, no := m.BestIn(b, ds.Cores)
		con := contests[i].IPT()
		sp := con/no - 1
		sumSp += sp
		sumHom += 1 / hom
		sumNo += 1 / no
		sumCon += 1 / con
		if sp > maxSp {
			maxSp, maxBench = sp, bench
		}
		if no < hom && con > hom {
			recovered = append(recovered, bench)
		}
		sat := ""
		for ci, s := range contests[i].Saturated {
			if s {
				sat += contests[i].Cores[ci] + " "
			}
		}
		t.AddRow(bench, f2(hom), f2(no), f2(con), pct(sp), sat)
	}
	n := float64(len(benches))
	t.AddNote("average contest speedup over no-contest %s, maximum %s (%s)", pct(sumSp/n), pct(maxSp), maxBench)
	t.AddNote("harmonic-mean IPT: HOM %s, no-contest %s, contest %s (contest over HOM: %s; no-contest over HOM: %s)",
		f2(n/sumHom), f2(n/sumNo), f2(n/sumCon), pct((n/sumCon)/(n/sumHom)-1), pct((n/sumNo)/(n/sumHom)-1))
	if len(recovered) > 0 {
		t.AddNote("benchmarks below HOM without contesting that contesting lifts above HOM: %v", recovered)
	}
	return t, nil
}

// Figure10 evaluates contesting on HET-A.
func Figure10(ctx context.Context, l *Lab) (*Table, error) {
	return contestedDesign(ctx, l, "Figure 10", func(d merit.PaperDesigns) merit.Design { return d.HetA })
}

// Figure11 evaluates contesting on HET-B.
func Figure11(ctx context.Context, l *Lab) (*Table, error) {
	return contestedDesign(ctx, l, "Figure 11", func(d merit.PaperDesigns) merit.Design { return d.HetB })
}

// Figure12 evaluates contesting on HET-C.
func Figure12(ctx context.Context, l *Lab) (*Table, error) {
	return contestedDesign(ctx, l, "Figure 12", func(d merit.PaperDesigns) merit.Design { return d.HetC })
}

// Figure13 compares contesting between HET-C's two core types against
// executing on the best of HET-D's three core types and against each
// benchmark's own customized core (HET-ALL without contesting).
func Figure13(ctx context.Context, l *Lab) (*Table, error) {
	m, d, err := l.designSet(ctx)
	if err != nil {
		return nil, err
	}
	pair := m.CoreNames(d.HetC)
	t := &Table{
		ID:     "Figure 13",
		Title:  fmt.Sprintf("contesting two core types (%v) vs more core types (HET-D %v)", pair, m.CoreNames(d.HetD)),
		Header: []string{"benchmark", "HET-C contest", "HET-D no-contest", "HET-ALL own-core"},
	}
	benches := l.Benchmarks()
	contests, err := gather(ctx, l, len(benches), func(i int) (contest.Result, error) {
		return l.Contest(ctx, benches[i], pair, contest.Options{})
	})
	if err != nil {
		return nil, err
	}
	var hc, hd, ha float64
	for i, bench := range benches {
		b, _ := m.BenchIndex(bench)
		con := contests[i].IPT()
		_, d3 := m.BestIn(b, d.HetD.Cores)
		own, err := l.OwnCoreIPT(ctx, bench)
		if err != nil {
			return nil, err
		}
		hc += 1 / con
		hd += 1 / d3
		ha += 1 / own
		t.AddRow(bench, f2(con), f2(d3), f2(own))
	}
	n := float64(len(benches))
	t.AddNote("harmonic means: HET-C contesting %s, HET-D (3 types) %s, HET-ALL own-core %s", f2(n/hc), f2(n/hd), f2(n/ha))
	t.AddNote("paper: contesting two core types matches or beats three types and the full palette")
	return t, nil
}

// AppendixA reports the benchmark x core IPT matrix, the reproduction's
// equivalent of the paper's Appendix A performance table.
func AppendixA(ctx context.Context, l *Lab) (*Table, error) {
	m, err := l.Matrix(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Appendix A",
		Title:  "IPT of each benchmark (rows) on each customized core (columns)",
		Header: append([]string{"benchmark"}, m.Cores...),
	}
	diag := 0
	for b, bench := range m.Benchmarks {
		row := []string{bench}
		bestC, _ := m.BestIn(b, allCores(m))
		for c := range m.Cores {
			cell := f2(m.IPT[b][c])
			if c == bestC {
				cell += "*"
			}
			row = append(row, cell)
		}
		if m.Cores[bestC] == bench {
			diag++
		}
		t.AddRow(row...)
	}
	t.AddNote("%d/%d benchmarks run fastest on their own customized core (* marks each row's best)", diag, len(m.Benchmarks))
	return t, nil
}

func allCores(m *merit.Matrix) []int {
	out := make([]int, len(m.Cores))
	for i := range out {
		out[i] = i
	}
	return out
}

// AppendixAConfigs lists the palette configurations (the top half of the
// paper's Appendix A table).
func AppendixAConfigs(ctx context.Context, l *Lab) (*Table, error) {
	t := &Table{
		ID:    "Appendix A (configurations)",
		Title: "benchmark-customized core configurations (transcribed from the paper)",
		Header: []string{"core", "clock ns", "width", "ROB", "IQ", "LSQ", "FE", "sched", "wake",
			"mem cyc", "L1D", "L2D"},
	}
	for _, c := range l.Cores() {
		t.AddRow(c.Name, fmt.Sprintf("%.2f", c.ClockPeriodNs),
			fmt.Sprintf("%d", c.Width), fmt.Sprintf("%d", c.ROBSize),
			fmt.Sprintf("%d", c.IQSize), fmt.Sprintf("%d", c.LSQSize),
			fmt.Sprintf("%d", c.FrontEndDepth), fmt.Sprintf("%d", c.SchedDepth),
			fmt.Sprintf("%d", c.WakeupLatency), fmt.Sprintf("%d", c.MemLatencyCycles),
			c.L1D.String(), c.L2D.String())
	}
	return t, nil
}
