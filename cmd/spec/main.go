// Command spec runs scenario specs from the command line. Each positional
// argument is one spec: the JSON document cmd/serve takes at POST /v1/jobs
// (internal/spec). The specs run in order in one shared environment, the
// same path a serve job takes, so results are cached, recorded specs bypass
// the cache, and Ctrl-C cancels cooperatively.
//
// For each spec, one line goes to stdout: the outcome as JSON, the value a
// serve node returns under "result". A summary for people goes to stderr.
//
// Usage:
//
//	spec '{"kind":"run","bench":"gcc","cores":["twolf"]}'
//	spec '{"kind":"contest","bench":"gcc","cores":["gcc","twolf"],"n":500000}'
//	spec '{"kind":"explore","bench":"gzip","explore":{"seed":1,"steps":150,"lookahead":8}}'
//	spec '{"kind":"matrix","n":500000}'
//	spec -cache.off -timeline tl.json -metrics m.json \
//	    '{"kind":"contest","bench":"twolf","cores":["twolf","vpr"],"record":true}'
//
// -timeline and -metrics write the recorded spec's Chrome trace and
// archcontest-obs-v1 metrics; at most one spec may set "record" then.
// Without a recorded spec they write the artifact schedule of the
// invocation's campaigns and explorations.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"archcontest/internal/cmdutil"
	"archcontest/internal/config"
	"archcontest/internal/obs"
	"archcontest/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spec: ")
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spec", flag.ExitOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: spec [flags] SPEC... (each SPEC is one JSON scenario, as POST /v1/jobs takes)")
		fs.PrintDefaults()
	}
	openCache := cmdutil.CacheFlags(fs)
	obsFlags := cmdutil.ObsFlags(fs)
	fs.Parse(args)
	obsFlags.StartPprof()
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no spec given")
	}

	// Check every spec before running any, so a typo in the last one fails
	// before minutes of simulation.
	specs := make([]spec.Spec, fs.NArg())
	recorded := 0
	for i, arg := range fs.Args() {
		sp, err := spec.Parse([]byte(arg))
		if err == nil {
			err = sp.Validate()
		}
		if err != nil {
			return fmt.Errorf("argument %d: %w", i+1, err)
		}
		if sp.Record {
			recorded++
		}
		specs[i] = sp
	}
	if obsFlags.Wanted() && recorded > 1 {
		return fmt.Errorf("-timeline and -metrics take at most one recorded spec, got %d", recorded)
	}

	env := spec.NewEnv(openCache())
	if obsFlags.Wanted() && recorded == 0 {
		env.Artifacts = obs.NewArtifactLog()
	}
	hooks := spec.Hooks{ExploreMove: func(step int, cfg config.CoreConfig, ipt float64) {
		fmt.Fprintf(stderr, "step %3d: IPT %.3f  %v\n", step, ipt, cfg)
	}}
	enc := json.NewEncoder(stdout)
	var rec *spec.Outcome
	for _, sp := range specs {
		out, err := spec.Execute(ctx, sp, env, hooks)
		if err != nil {
			return err
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
		fmt.Fprintln(stderr, summary(sp, out))
		if sp.Record {
			rec = out
		}
	}

	switch {
	case rec != nil:
		if err := obsFlags.WriteTimeline(rec.WriteChromeTrace); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		if err := obsFlags.WriteMetricsJSON(rec.Metrics); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	case env.Artifacts != nil:
		if err := obsFlags.WriteTimeline(env.Artifacts.WriteChromeTrace); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		if err := obsFlags.WriteMetricsJSON(struct {
			Artifacts obs.CampaignSummary `json:"artifacts"`
		}{env.Artifacts.Summary()}); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	cmdutil.PrintCacheStats(stderr, env.Cache)
	return nil
}

// summary is the stderr line for one outcome.
func summary(sp spec.Spec, out *spec.Outcome) string {
	switch {
	case out.Run != nil:
		return fmt.Sprintf("run %s on %s: IPT %.3f", sp.Bench, out.Run.Core, out.Run.IPT())
	case out.Contest != nil:
		c := out.Contest
		return fmt.Sprintf("contest %s on %v: IPT %.3f, winner %s, %d lead changes",
			sp.Bench, c.Cores, c.IPT(), c.Cores[c.Winner], c.LeadChanges)
	case out.Explore != nil:
		e := out.Explore
		return fmt.Sprintf("explore %s: best IPT %.3f over %d design points (%d detailed, %d fast-filtered, %d speculative discarded)\n%v",
			sp.Bench, e.BestIPT, e.Evaluated, e.Detailed, e.Filtered, e.Wasted, e.Best)
	case out.Table != nil:
		return fmt.Sprintf("experiment %s: %s", sp.Experiment, out.Table.ID)
	case out.Matrix != nil:
		return fmt.Sprintf("matrix: %d benchmarks x %d cores", len(out.Matrix.Benchmarks), len(out.Matrix.Cores))
	}
	return sp.Kind
}
