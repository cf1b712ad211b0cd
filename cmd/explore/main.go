// Command explore runs the design-space exploration (the XpScalar
// stand-in) to customize a core for a benchmark: simulated annealing with
// speculative parallel evaluation. The exploration is a declarative
// scenario (internal/spec) executed in the shared environment — the same
// path cmd/serve jobs take — so design-point evaluations are memoized in
// the persistent result cache and repeated explorations of the same trace
// re-simulate only new points. Ctrl-C abandons the walk cooperatively;
// every completed evaluation stays cached.
package main

import (
	"flag"
	"fmt"
	"log"

	"archcontest/internal/cmdutil"
	"archcontest/internal/config"
	"archcontest/internal/obs"
	"archcontest/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("explore: ")
	bench := flag.String("bench", "gcc", "benchmark to customize for")
	n := flag.Int("n", 100_000, "objective trace length in instructions")
	steps := flag.Int("steps", 120, "annealing steps")
	seed := flag.Uint64("seed", 1, "exploration seed")
	lookahead := flag.Int("K", 8, "speculative lookahead window (1 = sequential)")
	par := flag.Int("par", 0, "max concurrent evaluations (0 = NumCPU)")
	fastFilter := flag.Bool("fast.filter", false, "screen candidates with the fast interval model before detailed simulation")
	fastMargin := flag.Float64("fast.margin", 0, "fast-filter relative margin (0 = calibrated default)")
	verbose := flag.Bool("v", false, "log accepted moves")
	openCache := cmdutil.CacheFlags(nil)
	obsFlags := cmdutil.ObsFlags(nil)
	flag.Parse()
	obsFlags.StartPprof()

	ctx, stop := cmdutil.SignalContext()
	defer stop()

	env := spec.NewEnv(openCache())
	if obsFlags.Wanted() {
		env.Artifacts = obs.NewArtifactLog()
	}

	var hooks spec.Hooks
	if *verbose {
		hooks.ExploreMove = func(step int, cfg config.CoreConfig, ipt float64) {
			fmt.Printf("step %3d: IPT %.3f  %v\n", step, ipt, cfg)
		}
	}
	out, err := spec.Execute(ctx, spec.Spec{
		Kind: spec.KindExplore, Bench: *bench, N: *n, Parallelism: *par,
		Explore: &spec.ExploreSpec{
			Seed: *seed, Steps: *steps, Lookahead: *lookahead,
			FastFilter: *fastFilter, FastMargin: *fastMargin,
		},
	}, env, hooks)
	if err != nil {
		log.Fatal(err)
	}
	res := *out.Explore
	fmt.Printf("evaluated %d design points (%d speculative evaluations discarded)\n", res.Evaluated, res.Wasted)
	if *fastFilter {
		fmt.Printf("detailed simulations %d, fast-filtered %d\n", res.Detailed, res.Filtered)
	}
	fmt.Printf("best IPT %.3f\n%v\n", res.BestIPT, res.Best)

	// Compare against the paper's customized core for the benchmark, through
	// the same spec path (so the reference run is cached too).
	refOut, err := spec.Execute(ctx, spec.Spec{
		Kind: spec.KindRun, Bench: *bench, N: *n, Cores: []string{*bench},
	}, env, spec.Hooks{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper palette core %q on the same trace: IPT %.3f\n", *bench, refOut.Run.IPT())
	if env.Artifacts != nil {
		if err := obsFlags.WriteTimeline(env.Artifacts.WriteChromeTrace); err != nil {
			log.Fatalf("timeline: %v", err)
		}
		if err := obsFlags.WriteMetricsJSON(struct {
			Evaluated int                 `json:"evaluated"`
			Wasted    int                 `json:"wasted"`
			Detailed  int                 `json:"detailed"`
			Filtered  int                 `json:"filtered"`
			BestIPT   float64             `json:"best_ipt"`
			Artifacts obs.CampaignSummary `json:"artifacts"`
		}{res.Evaluated, res.Wasted, res.Detailed, res.Filtered, res.BestIPT, env.Artifacts.Summary()}); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
	cmdutil.PrintCacheStats(env.Cache)
}
