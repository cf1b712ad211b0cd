// Command figures regenerates the tables and figures of the paper's
// evaluation from the reproduction's simulators.
//
// Each experiment is a declarative scenario (internal/spec) executed in a
// shared environment — the same path cmd/serve jobs take — so artifacts
// are computed once per process however many experiments share them, leaf
// simulations run on all cores, and with the persistent result cache
// enabled (the default) a re-run only simulates what changed since the
// last one. Ctrl-C cancels the campaign cooperatively: un-started leaves
// are abandoned and the cache keeps every completed leaf.
//
// Usage:
//
//	figures                      # every experiment at the default scale
//	figures -experiment fig6     # one experiment
//	figures -n 200000            # shorter traces (faster, noisier)
//	figures -par 4               # bound concurrent simulations
//	figures -cache.dir DIR       # result cache location (default .archcontest-cache)
//	figures -cache.off           # recompute everything
//	figures -list                # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"archcontest/internal/cmdutil"
	"archcontest/internal/experiments"
	"archcontest/internal/obs"
	"archcontest/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	n := flag.Int("n", 1_000_000, "trace length in instructions")
	experiment := flag.String("experiment", "", "experiment ID (empty = all); comma-separated IDs allowed")
	latency := flag.Float64("latency", 1.0, "core-to-core latency in ns")
	pairs := flag.Int("pairs", 3, "oracle-shortlisted candidate pairs per benchmark")
	par := flag.Int("par", 0, "max concurrent simulations (0 = NumCPU)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	openCache := cmdutil.CacheFlags(nil)
	obsFlags := cmdutil.ObsFlags(nil)
	flag.Parse()
	obsFlags.StartPprof()

	if *list {
		for _, id := range experiments.RegistryOrder {
			fmt.Println(id)
		}
		return
	}

	ids, err := experimentIDs(*experiment)
	if err != nil {
		log.Fatalf("-experiment: %v", err)
	}
	ctx, stop := cmdutil.SignalContext()
	defer stop()

	env := spec.NewEnv(openCache())
	env.Parallelism = *par
	if obsFlags.Wanted() {
		env.Artifacts = obs.NewArtifactLog()
	}
	var campaign func() experiments.CampaignStats
	hooks := spec.Hooks{Campaign: func(stats func() experiments.CampaignStats) { campaign = stats }}
	cmdutil.Publish("archcontest.campaign", func() any {
		if campaign == nil {
			return experiments.CampaignStats{}
		}
		return campaign()
	})
	campaignStart := time.Now()
	for _, id := range ids {
		start := time.Now()
		out, err := spec.Execute(ctx, spec.Spec{
			Kind: spec.KindExperiment, Experiment: id,
			N: *n, LatencyNs: *latency, Pairs: *pairs,
		}, env, hooks)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		out.Table.Fprint(os.Stdout)
		fmt.Printf("(%s computed in %v at n=%d)\n\n", id, time.Since(start).Round(time.Millisecond), *n)
	}
	var st experiments.CampaignStats
	if campaign != nil {
		st = campaign()
	}
	fmt.Fprintf(os.Stderr, "campaign: %v wall, %d traces generated, %d simulations, %d contests executed\n",
		time.Since(campaignStart).Round(time.Millisecond), st.TraceGens, st.Simulations, st.Contests)
	if env.Artifacts != nil {
		if err := obsFlags.WriteTimeline(env.Artifacts.WriteChromeTrace); err != nil {
			log.Fatalf("timeline: %v", err)
		}
		if err := obsFlags.WriteMetricsJSON(struct {
			Campaign  experiments.CampaignStats `json:"campaign"`
			Artifacts obs.CampaignSummary       `json:"artifacts"`
		}{st, env.Artifacts.Summary()}); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
	cmdutil.PrintCacheStats(os.Stderr, env.Cache)
}

// experimentIDs parses the -experiment list: empty selects every registered
// experiment, otherwise each comma-separated ID must name one. The whole
// list is checked before any experiment runs, so a typo late in it fails
// fast instead of after minutes of simulation.
func experimentIDs(list string) ([]string, error) {
	if list == "" {
		return experiments.RegistryOrder, nil
	}
	ids := strings.Split(list, ",")
	for i, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, fmt.Errorf("empty experiment ID in %q", list)
		}
		if _, ok := experiments.Registry[id]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
		}
		ids[i] = id
	}
	return ids, nil
}
