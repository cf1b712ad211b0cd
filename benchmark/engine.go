package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"time"

	"archcontest"
	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// The engine and components workloads run the seven cmd/bench jobs: four
// single-core runs, each benchmark on its own core, and three contests.
// In engine every core keeps the palette's default components (gshare,
// the fused-LRU caches, no prefetcher), so the pipeline, branch, cache and
// contest layers do all the work and the campaign, result-cache and serve
// layers none. In components every core is rewritten onto non-default
// built-ins, which takes the predictor, replacement and prefetcher SPI
// paths that engine bypasses.
var engineJobs = []struct {
	bench string
	cores []string
}{
	{"mcf", []string{"mcf"}},
	{"gcc", []string{"gcc"}},
	{"crafty", []string{"crafty"}},
	{"twolf", []string{"twolf"}},
	{"twolf", []string{"twolf", "vpr"}},
	{"mcf", []string{"mcf", "gcc"}},
	{"gcc", []string{"gcc", "mcf", "bzip", "crafty"}},
}

// component is one core's predictor, replacement policy and prefetcher.
type component struct{ predictor, replacement, prefetcher string }

// componentPlan gives each core of each engine job its components in the
// components workload. Every non-default built-in (tage and bimodal,
// srrip and random, stride and nextline) appears in at least one single
// job and at least one contest.
var componentPlan = [][]component{
	{{"tage", "srrip", "stride"}},
	{{"bimodal", "random", "nextline"}},
	{{"tage", "random", "stride"}},
	{{"bimodal", "srrip", "nextline"}},
	{{"tage", "srrip", "nextline"}, {"bimodal", "random", "stride"}},
	{{"tage", "random", "nextline"}, {"bimodal", "srrip", "stride"}},
	{{"tage", "srrip", "stride"}, {"bimodal", "random", "nextline"}, {"tage", "random", "nextline"}, {"bimodal", "srrip", "stride"}},
}

// engineJob is one resolved job: its trace and its cores.
type engineJob struct {
	name  string
	bench string
	cores []config.CoreConfig
}

// equip rewrites a palette core onto the given components.
func equip(base config.CoreConfig, c component) (config.CoreConfig, error) {
	cfg := base
	cfg.Name = fmt.Sprintf("%s+%s/%s/%s", base.Name, c.predictor, c.replacement, c.prefetcher)
	cfg.Predictor = branch.RepresentativeConfig(c.predictor)
	cfg.L1D.Replacement = c.replacement
	cfg.L2D.Replacement = c.replacement
	cfg.Prefetch = cache.PrefetchConfig{Name: c.prefetcher}
	return cfg, cfg.Validate()
}

// resolveEngineJobs builds the seven jobs' core configurations.
func resolveEngineJobs(components bool) ([]engineJob, error) {
	jobs := make([]engineJob, len(engineJobs))
	for i, j := range engineJobs {
		kind := "single"
		if len(j.cores) > 1 {
			kind = fmt.Sprintf("contest%d", len(j.cores))
		}
		jobs[i] = engineJob{name: kind + "/" + j.bench, bench: j.bench}
		for k, name := range j.cores {
			cfg, err := config.PaletteCore(name)
			if err != nil {
				return nil, err
			}
			if components {
				if cfg, err = equip(cfg, componentPlan[i][k]); err != nil {
					return nil, err
				}
			}
			jobs[i].cores = append(jobs[i].cores, cfg)
		}
	}
	return jobs, nil
}

// seededTrace generates the benchmark's trace with the workload seed mixed
// into its profile seed, so each seed draws different instructions from
// the same phase structure.
func seededTrace(bench string, n int, seed uint64) (*trace.Trace, error) {
	p, err := workload.ProfileFor(bench)
	if err != nil {
		return nil, err
	}
	p.Seed ^= seed
	return workload.Generate(p, n)
}

// hashJSON adds v's JSON encoding to h.
func hashJSON(h hash.Hash, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("hashing %T: %v", v, err))
	}
	h.Write(data)
	h.Write([]byte{'\n'})
}

// runJob executes one job and returns its result and retired count.
func runJob(ctx context.Context, j engineJob, tr *trace.Trace) (any, int64, error) {
	if len(j.cores) == 1 {
		r, err := sim.RunContext(ctx, j.cores[0], tr, sim.RunOptions{})
		return r, r.Insts, err
	}
	r, err := contest.RunContext(ctx, j.cores, tr, contest.Options{})
	return r, r.Insts, err
}

func runEngine(ctx context.Context, b *bench, components bool) error {
	var jobs []engineJob
	var traces map[string]*trace.Trace
	err := b.setup(func() error {
		var err error
		if jobs, err = resolveEngineJobs(components); err != nil {
			return err
		}
		traces = map[string]*trace.Trace{}
		for _, j := range jobs {
			if traces[j.bench] == nil {
				if traces[j.bench], err = seededTrace(j.bench, b.p.engineN, b.seed); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var first []byte
	err = b.rounds(func(r int, rec *recorder, root int) error {
		h := sha256.New()
		for _, j := range jobs {
			tr := traces[j.bench]
			layer := "sim"
			if len(j.cores) > 1 {
				layer = "contest"
			}
			id := rec.begin(root, layer, j.name, fmt.Sprintf("r%d/%s", r, j.name))
			start := time.Now()
			res, insts, err := runJob(ctx, j, tr)
			wall := time.Since(start).Seconds()
			rec.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", j.name, err)
			}
			b.check(insts == int64(tr.Len()), "%s retired %d of %d instructions", j.name, insts, tr.Len())
			if rec == nil {
				b.add(&b.ops, j.name, wall)
				if len(j.cores) == 1 {
					b.add(&b.singles, j.name, wall)
				} else {
					b.add(&b.contests, j.name, wall)
				}
			}
			hashJSON(h, res)
		}
		sum := h.Sum(nil)
		if first == nil {
			first = sum
		} else {
			b.check(string(sum) == string(first), "round %d results differ from round 0", r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.digest = first
	// One operation is one round of the seven jobs, each at its median
	// calibrated time across the untraced rounds.
	for _, j := range jobs {
		if len(j.cores) == 1 {
			b.singleInsts += float64(traces[j.bench].Len())
		} else {
			b.contestInsts += float64(traces[j.bench].Len())
		}
	}
	b.op, b.opSamples = timed{b.ops.total(true), b.ops.total(false)}, b.roundWalls
	b.measureHeap()

	// Verification is untimed: every configuration runs with the invariant
	// checker and the in-order oracle attached on a prefix of its trace.
	for _, j := range jobs {
		pre := traces[j.bench].Prefix(b.p.verifyN)
		var err error
		if len(j.cores) == 1 {
			_, err = archcontest.RunVerified(j.cores[0], pre)
		} else {
			_, err = archcontest.ContestRunVerified(j.cores, pre, contest.Options{})
		}
		b.check(err == nil, "%s verified on %d instructions: %v", j.name, pre.Len(), err)
	}
	if b.rec != nil {
		return b.probeLayers(ctx)
	}
	return nil
}
