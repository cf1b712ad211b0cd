package spec

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/explore"
	"archcontest/internal/merit"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// Env is the shared execution environment specs run in: the persistent
// result cache and a memoized pool of experiment Labs, so many jobs (or
// many experiments of one CLI invocation) share traces, memoized
// artifacts, and the global parallelism bound instead of rebuilding them
// per scenario.
type Env struct {
	// Cache, if non-nil, persists leaf results across specs and processes.
	Cache *resultcache.Cache
	// Parallelism bounds concurrent leaf simulations per Lab and per
	// exploration when the spec sets no bound (0 = NumCPU).
	Parallelism int
	// Artifacts, if non-nil, receives campaign spans from every Lab built
	// by this Env.
	Artifacts *obs.ArtifactLog

	mu   sync.Mutex
	labs map[string]*experiments.Lab
}

// NewEnv builds an execution environment over an optional result cache.
func NewEnv(cache *resultcache.Cache) *Env {
	return &Env{Cache: cache}
}

// lab returns the Env's memoized Lab for the given campaign shape,
// building it on first use. Labs are keyed by their full configuration,
// so two specs differing only in verify/record toggles or trace length
// get distinct Labs while identical ones share memoized artifacts.
func (e *Env) lab(cfg experiments.Config) *Lab {
	key := resultcache.Key("lab", cfg)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.labs == nil {
		e.labs = make(map[string]*Lab)
	}
	if l, ok := e.labs[key]; ok {
		return l
	}
	l := experiments.NewLab(cfg)
	e.labs[key] = l
	return l
}

// Lab aliases the campaign engine for Env's memoized pool.
type Lab = experiments.Lab

// Hooks observe an executing spec. All callbacks are optional and are
// invoked from the executing goroutine.
type Hooks struct {
	// Progress observes retirement progress of run/contest kinds and step
	// progress of explore kinds: done units out of total. Calls are
	// monotonically non-decreasing in done.
	Progress func(done, total int64)
	// Campaign is called once, before an experiment/matrix campaign
	// starts, with a live getter for the Lab's executed-work counters.
	Campaign func(stats func() experiments.CampaignStats)
	// ExploreMove observes every accepted exploration move.
	ExploreMove func(step int, cfg config.CoreConfig, ipt float64)
}

// Outcome is the result of executing a Spec: exactly one of the payload
// fields matching the spec's kind is set, plus Metrics when Record was
// requested.
type Outcome struct {
	Kind    string             `json:"kind"`
	Run     *sim.Result        `json:"run,omitempty"`
	Contest *contest.Result    `json:"contest,omitempty"`
	Table   *experiments.Table `json:"table,omitempty"`
	Matrix  *merit.Matrix      `json:"matrix,omitempty"`
	Explore *explore.Result    `json:"explore,omitempty"`
	Metrics *obs.Metrics       `json:"metrics,omitempty"`

	recorder *obs.Recorder
}

// WriteChromeTrace writes the recorded run's Chrome/Perfetto timeline.
// It errors when the spec did not request Record.
func (o *Outcome) WriteChromeTrace(w io.Writer) error {
	if o.recorder == nil {
		return fmt.Errorf("spec: no recording requested (set record: true)")
	}
	return o.recorder.WriteChromeTrace(w)
}

// Execute validates and runs the spec inside the environment. Cancelling
// ctx stops the execution cooperatively: the engines exit at their next
// context poll, campaign layers abandon un-started leaves, and no partial
// result is persisted to the cache. The returned error is ctx.Err() (or
// wraps it) on cancellation.
func Execute(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	if env == nil {
		env = NewEnv(nil)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	var out *Outcome
	var err error
	switch sp.Kind {
	case KindRun:
		out, err = executeRun(ctx, sp, env, hooks)
	case KindContest:
		out, err = executeContest(ctx, sp, env, hooks)
	case KindExperiment, KindMatrix:
		out, err = executeCampaign(ctx, sp, env, hooks)
	case KindExplore:
		out, err = executeExplore(ctx, sp, env, hooks)
	}
	if err != nil {
		return nil, err
	}
	// A leaf served from the cache reports no progress of its own, so a
	// spec with a progress unit ends on (total, total).
	if total := sp.ProgressTotal(); hooks.Progress != nil && total > 0 {
		hooks.Progress(total, total)
	}
	return out, nil
}

// generateTrace builds the spec's benchmark trace.
func generateTrace(sp Spec) (*trace.Trace, error) {
	p, err := workload.ProfileFor(sp.Bench)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, sp.N)
}

// executeRun and executeContest execute one leaf each, on the spec's
// resolved options, through the experiments leaf path: a plain leaf is
// served from and stored into the cache, a verified or recorded one
// bypasses it. The engine's run loop reports progress straight to the
// hook, and Execute sends the final (n, n). The recorder rides beside the
// verification checkers.
func executeRun(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	cfgs, err := sp.ResolveCores()
	if err != nil {
		return nil, err
	}
	cfg := cfgs[0]
	tr, err := generateTrace(sp)
	if err != nil {
		return nil, err
	}
	opts := *sp.Run
	out := &Outcome{Kind: KindRun}
	opts.Progress = hooks.Progress
	if sp.Record {
		out.recorder = obs.NewRecorder(obs.Options{SampleIntervalNs: sp.SampleNs})
		opts.Checker = out.recorder.CoreChecker(0)
	}
	res, err := experiments.Cached(env.Cache, experiments.RunKey(tr, cfg, opts), sp.Verify || sp.Record, nil, func() (sim.Result, error) {
		if sp.Verify {
			return experiments.RunVerified(ctx, cfg, tr, opts, 0)
		}
		return sim.RunContext(ctx, cfg, tr, opts)
	})
	if err != nil {
		return nil, err
	}
	if out.recorder != nil {
		out.recorder.FinishRun(res)
		m, err := out.recorder.Metrics()
		if err != nil {
			return nil, err
		}
		out.Metrics = &m
	}
	out.Run = &res
	return out, nil
}

func executeContest(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	cfgs, err := sp.ResolveCores()
	if err != nil {
		return nil, err
	}
	tr, err := generateTrace(sp)
	if err != nil {
		return nil, err
	}
	opts := *sp.Contest
	out := &Outcome{Kind: KindContest}
	opts.Progress = hooks.Progress
	if sp.Record {
		out.recorder = obs.NewRecorder(obs.Options{SampleIntervalNs: sp.SampleNs})
		opts.Observer = out.recorder
	}
	res, err := experiments.Cached(env.Cache, experiments.ContestKey(tr, cfgs, opts), sp.Verify || sp.Record, nil, func() (contest.Result, error) {
		if sp.Verify {
			return experiments.ContestVerified(ctx, cfgs, tr, opts, 0)
		}
		return contest.RunContext(ctx, cfgs, tr, opts)
	})
	if err != nil {
		return nil, err
	}
	if out.recorder != nil {
		out.recorder.FinishContest(res)
		m, err := out.recorder.Metrics()
		if err != nil {
			return nil, err
		}
		out.Metrics = &m
	}
	out.Contest = &res
	return out, nil
}

// parallelism resolves the spec's concurrency bound: its own, else the
// environment's, else NumCPU.
func (e *Env) parallelism(sp Spec) int {
	if sp.Parallelism > 0 {
		return sp.Parallelism
	}
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.NumCPU()
}

func (e *Env) labFor(sp Spec) *Lab {
	cache := e.Cache
	if sp.Verify {
		cache = nil // the Lab bypasses it anyway; keep the key honest
	}
	return e.lab(experiments.Config{
		N:              sp.N,
		LatencyNs:      sp.LatencyNs,
		CandidatePairs: sp.Pairs,
		Parallelism:    e.parallelism(sp),
		Cache:          cache,
		Verify:         sp.Verify,
		Artifacts:      e.Artifacts,
	})
}

func executeCampaign(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	l := env.labFor(sp)
	if hooks.Campaign != nil {
		hooks.Campaign(l.CampaignStats)
	}
	if sp.Kind == KindMatrix {
		m, err := l.Matrix(ctx)
		if err != nil {
			return nil, err
		}
		return &Outcome{Kind: KindMatrix, Matrix: m}, nil
	}
	t, err := experiments.Registry[sp.Experiment](ctx, l)
	if err != nil {
		return nil, err
	}
	return &Outcome{Kind: KindExperiment, Table: t}, nil
}

func executeExplore(ctx context.Context, sp Spec, env *Env, hooks Hooks) (*Outcome, error) {
	tr, err := generateTrace(sp)
	if err != nil {
		return nil, err
	}
	e := sp.Explore
	opts := explore.Options{
		Seed:        e.Seed,
		Steps:       e.Steps,
		Lookahead:   e.Lookahead,
		Parallelism: env.parallelism(sp),
		Cache:       env.Cache,
		Log:         env.Artifacts,
		FastFilter:  e.FastFilter,
		FastMargin:  e.FastMargin,
	}
	// Step progress goes through the run loops' meter; Execute sends the
	// final (steps, steps).
	progress := sim.NewMeter(hooks.Progress, int64(e.Steps))
	if hooks.ExploreMove != nil || hooks.Progress != nil {
		opts.Progress = func(step int, cfg config.CoreConfig, ipt float64) {
			progress.Observe(int64(step + 1))
			if hooks.ExploreMove != nil {
				hooks.ExploreMove(step, cfg, ipt)
			}
		}
	}
	res, err := explore.Customize(ctx, tr, opts)
	if err != nil {
		return nil, err
	}
	return &Outcome{Kind: KindExplore, Explore: &res}, nil
}
