// Package spec is the unified scenario description executed by every
// driver: a JSON-encodable declaration of what to simulate (a single run,
// a contest, a registered experiment, the full matrix, or a design-space
// exploration), on which cores, over which benchmark trace, with which
// options, and whether to verify and/or record the execution. The three
// ad-hoc entry points (sim.Run, contest.Run, experiments.Lab) remain the
// execution engines; a Spec is the one declarative doorway in front of
// them, shared by the CLIs, the job runner, and the serve daemon.
//
// A Spec validates before it executes: unknown fields, unknown benchmarks
// or cores, structurally invalid custom cores (zero width, out-of-range
// geometry), and out-of-range options are descriptive errors, never
// panics deep inside the engines.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/explore"
	"archcontest/internal/sim"
	"archcontest/internal/workload"
)

// Kinds of scenario a Spec can describe.
const (
	KindRun        = "run"        // one benchmark on one core
	KindContest    = "contest"    // one benchmark contested across 2..8 cores
	KindExperiment = "experiment" // one registered paper table/figure
	KindMatrix     = "matrix"     // the full benchmark x core IPT matrix
	KindExplore    = "explore"    // design-space exploration (simulated annealing)
)

// maxN is the longest trace a spec may ask for: the paper's 100M-instruction
// SimPoint. Validate rejects anything longer before any trace is generated,
// so one oversized job cannot exhaust a node's memory (nor, re-placed after
// the node dies, the next node's).
const maxN = 100_000_000

// The explore kind's limits, checked by Validate for the same reason as
// maxN: the annealer allocates its lookahead window at once, and every step
// can cost a detailed simulation.
const (
	maxLookahead    = 64
	maxExploreSteps = 100_000
)

// Spec declares one scenario. The zero value is not runnable; fill in at
// least Kind (or a field that implies it) and the kind's inputs, then
// Validate (Execute validates again defensively).
type Spec struct {
	// Kind selects the scenario type. Empty infers: Explore set implies
	// explore, Experiment set implies experiment, two or more cores imply
	// contest, otherwise run.
	Kind string `json:"kind,omitempty"`
	// Bench is the benchmark whose trace is executed (run, contest,
	// explore). Experiment and matrix kinds span all benchmarks.
	Bench string `json:"bench,omitempty"`
	// N is the trace length in instructions (0 defaults per kind: 200k for
	// run/contest, 100k for explore, 1M for experiment/matrix).
	N int `json:"n,omitempty"`
	// Cores names palette cores (run: exactly one; contest: with Custom,
	// 2..8). Run kind with no cores defaults to the benchmark's own core.
	Cores []string `json:"cores,omitempty"`
	// Custom supplies explicit core configurations, appended after Cores.
	Custom []config.CoreConfig `json:"custom,omitempty"`
	// LatencyNs is the contest core-to-core latency when Contest sets none
	// (also the experiment Lab's default latency).
	LatencyNs float64 `json:"latency_ns,omitempty"`
	// Run holds single-run options (run kind).
	Run *sim.RunOptions `json:"run,omitempty"`
	// Contest holds contest options (contest kind).
	Contest *contest.Options `json:"contest,omitempty"`
	// Experiment is the registered experiment ID (experiment kind).
	Experiment string `json:"experiment,omitempty"`
	// Pairs bounds the oracle-shortlisted candidate pairs per benchmark in
	// pair-search experiments (experiment kind; 0 = the Lab default).
	Pairs int `json:"pairs,omitempty"`
	// Explore configures the exploration (explore kind).
	Explore *ExploreSpec `json:"explore,omitempty"`
	// Verify attaches the verification subsystem (invariant checkers and
	// the differential oracle) to every executed leaf. Verified execution
	// bypasses the result cache in both directions. Validate rejects it on
	// the explore kind, whose design-point evaluations run unverified
	// through the result cache.
	Verify bool `json:"verify,omitempty"`
	// Record attaches an obs.Recorder and returns archcontest-obs-v1
	// metrics plus a Chrome/Perfetto timeline in the Outcome. Supported
	// for run and contest kinds. Recorded execution bypasses the result
	// cache (the record happens during execution).
	Record bool `json:"record,omitempty"`
	// SampleNs is the recorder sampling period in simulated nanoseconds
	// (0 = recorder default).
	SampleNs float64 `json:"sample_ns,omitempty"`
	// Parallelism bounds concurrent leaf simulations for campaign and
	// explore kinds (0 = the executing environment's default).
	Parallelism int `json:"parallelism,omitempty"`
}

// ExploreSpec configures the explore kind.
type ExploreSpec struct {
	// Seed drives the walk deterministically.
	Seed uint64 `json:"seed,omitempty"`
	// Steps is the number of annealing moves (0 selects
	// explore.DefaultSteps).
	Steps int `json:"steps,omitempty"`
	// Lookahead is the annealer's speculative batch size K.
	Lookahead int `json:"lookahead,omitempty"`
	// FastFilter enables the fast-model first pass: candidates the
	// interval model rules out are rejected without a detailed
	// simulation, and lookahead speculation past a predicted acceptance
	// is deferred. FastMargin overrides the filter's relative margin
	// (default explore.DefaultFastMargin).
	FastFilter bool    `json:"fast_filter,omitempty"`
	FastMargin float64 `json:"fast_margin,omitempty"`
}

// Parse decodes a Spec from JSON strictly: unknown fields are errors, so a
// typo in a submitted scenario is reported instead of silently ignored.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after the JSON document")
	}
	return sp, nil
}

// inferKind resolves an empty Kind from the populated fields.
func (sp *Spec) inferKind() string {
	if sp.Kind != "" {
		return sp.Kind
	}
	switch {
	case sp.Explore != nil:
		return KindExplore
	case sp.Experiment != "":
		return KindExperiment
	case len(sp.Cores)+len(sp.Custom) >= 2 || sp.Contest != nil:
		return KindContest
	default:
		return KindRun
	}
}

// Normalize fills in the inferred kind, the kind's defaults and its
// resolved leaf options: a run always carries its sim.RunOptions, a
// contest its contest.Options with the latency resolved (its own
// LatencyNs, else latency_ns, else contest.DefaultLatencyNs), and an
// explore its step count. It resolves into copies and never writes through
// the caller's Run, Contest or Explore. Validate and Execute call it;
// calling it first is idempotent.
func (sp *Spec) Normalize() {
	sp.Kind = sp.inferKind()
	if sp.N == 0 {
		switch sp.Kind {
		case KindRun, KindContest:
			sp.N = 200_000
		case KindExplore:
			sp.N = 100_000
		default:
			sp.N = 1_000_000
		}
	}
	if sp.Kind == KindRun && len(sp.Cores)+len(sp.Custom) == 0 && sp.Bench != "" {
		sp.Cores = []string{sp.Bench}
	}
	switch sp.Kind {
	case KindRun:
		var o sim.RunOptions
		if sp.Run != nil {
			o = *sp.Run
		}
		sp.Run = &o
	case KindContest:
		var o contest.Options
		if sp.Contest != nil {
			o = *sp.Contest
		}
		if o.LatencyNs == 0 {
			o.LatencyNs = sp.LatencyNs
		}
		if o.LatencyNs == 0 {
			o.LatencyNs = contest.DefaultLatencyNs
		}
		sp.Contest = &o
	case KindExplore:
		var e ExploreSpec
		if sp.Explore != nil {
			e = *sp.Explore
		}
		if e.Steps == 0 {
			e.Steps = explore.DefaultSteps
		}
		sp.Explore = &e
	}
}

// ProgressTotal reports the total of the spec's progress unit, the one
// Hooks.Progress and a job's snapshot count in: the trace length n for a
// run or a contest, the step count for an explore, and 0 for an experiment
// or a matrix, whose progress is their campaign counters.
func (sp Spec) ProgressTotal() int64 {
	sp.Normalize()
	switch sp.Kind {
	case KindRun, KindContest:
		return int64(sp.N)
	case KindExplore:
		return int64(sp.Explore.Steps)
	}
	return 0
}

// Validate normalizes the spec and reports the first problem with it as a
// descriptive error. A nil return means Execute will not fail on the
// spec's shape (engine-level failures, like a non-terminating
// configuration hitting MaxCycles, can still occur).
func (sp *Spec) Validate() error {
	sp.Normalize()
	switch sp.Kind {
	case KindRun, KindContest, KindExperiment, KindMatrix, KindExplore:
	default:
		return fmt.Errorf("spec: unknown kind %q (want %s)", sp.Kind,
			strings.Join([]string{KindRun, KindContest, KindExperiment, KindMatrix, KindExplore}, ", "))
	}
	if sp.N < 0 {
		return fmt.Errorf("spec: negative trace length n = %d", sp.N)
	}
	if sp.N > maxN {
		return fmt.Errorf("spec: trace length n = %d exceeds the limit of %d instructions", sp.N, maxN)
	}
	if sp.LatencyNs < 0 {
		return fmt.Errorf("spec: negative latency_ns %g", sp.LatencyNs)
	}
	if sp.SampleNs < 0 {
		return fmt.Errorf("spec: negative sample_ns %g", sp.SampleNs)
	}
	if sp.Parallelism < 0 {
		return fmt.Errorf("spec: negative parallelism %d", sp.Parallelism)
	}
	if sp.Pairs < 0 {
		return fmt.Errorf("spec: negative pairs %d", sp.Pairs)
	}
	if sp.Pairs > 0 && sp.Kind != KindExperiment {
		return fmt.Errorf("spec: pairs is only meaningful for the experiment kind (got %q)", sp.Kind)
	}

	needsBench := sp.Kind == KindRun || sp.Kind == KindContest || sp.Kind == KindExplore
	if needsBench {
		if sp.Bench == "" {
			return fmt.Errorf("spec: kind %q needs a bench", sp.Kind)
		}
		if _, err := workload.ProfileFor(sp.Bench); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}

	// Count the cores before resolving them, so an oversized list is turned
	// away before any core is checked (a registered predictor kind is
	// checked by building it).
	switch cores := len(sp.Cores) + len(sp.Custom); sp.Kind {
	case KindRun:
		if cores != 1 {
			return fmt.Errorf("spec: kind run wants exactly one core, got %d", cores)
		}
	case KindContest:
		if cores < contest.MinCores || cores > contest.MaxCores {
			return fmt.Errorf("spec: kind contest wants %d..%d cores, got %d", contest.MinCores, contest.MaxCores, cores)
		}
	default:
		if cores != 0 {
			return fmt.Errorf("spec: kind %q takes no cores", sp.Kind)
		}
	}
	if _, err := sp.ResolveCores(); err != nil {
		return err
	}

	if sp.Contest != nil {
		if sp.Kind != KindContest {
			return fmt.Errorf("spec: contest options on kind %q", sp.Kind)
		}
		// contest.Options carries no JSON tags (its encoding is part of
		// every contest's cache key), so its errors name its Go field
		// names, the keys the wire accepts.
		if err := sp.Contest.Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if !sp.Contest.ExceptionKillRefork &&
			(sp.Contest.ReforkWarmupNs > 0 || sp.Contest.ReforkColdPredictor || sp.Contest.ReforkColdCaches) {
			return fmt.Errorf("spec: contest ReforkWarmupNs, ReforkColdPredictor and ReforkColdCaches need ExceptionKillRefork")
		}
	}
	if sp.Run != nil && sp.Kind != KindRun {
		return fmt.Errorf("spec: run options on kind %q", sp.Kind)
	}
	if sp.Explore != nil && sp.Kind != KindExplore {
		return fmt.Errorf("spec: explore options on kind %q", sp.Kind)
	}

	switch sp.Kind {
	case KindExperiment:
		if sp.Experiment == "" {
			return fmt.Errorf("spec: kind experiment needs an experiment ID")
		}
		if _, ok := experiments.Registry[sp.Experiment]; !ok {
			return fmt.Errorf("spec: unknown experiment %q (see the registry: %s)",
				sp.Experiment, strings.Join(experiments.RegistryOrder, ", "))
		}
	case KindExplore:
		if sp.Verify {
			return fmt.Errorf("spec: verify is not supported for the explore kind")
		}
		e := sp.Explore
		if e.Steps < 0 || e.Lookahead < 0 {
			return fmt.Errorf("spec: negative explore parameter")
		}
		if e.Steps > maxExploreSteps {
			return fmt.Errorf("spec: explore steps %d exceeds the limit of %d", e.Steps, maxExploreSteps)
		}
		if e.Lookahead > maxLookahead {
			return fmt.Errorf("spec: explore lookahead %d exceeds the limit of %d", e.Lookahead, maxLookahead)
		}
		if e.FastMargin < 0 {
			return fmt.Errorf("spec: negative explore fast margin")
		}
		if e.FastMargin > 0 && !e.FastFilter {
			return fmt.Errorf("spec: fast_margin set without fast_filter")
		}
	}

	if sp.Record && sp.Kind != KindRun && sp.Kind != KindContest {
		return fmt.Errorf("spec: record is only supported for run and contest kinds (got %q)", sp.Kind)
	}
	return nil
}

// ResolveCores materializes Cores (palette names) and Custom (explicit
// configurations, validated) into one configuration list, names first.
func (sp *Spec) ResolveCores() ([]config.CoreConfig, error) {
	cfgs := make([]config.CoreConfig, 0, len(sp.Cores)+len(sp.Custom))
	for _, name := range sp.Cores {
		c, err := config.PaletteCore(name)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		cfgs = append(cfgs, c)
	}
	for i, c := range sp.Custom {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("spec: custom core %d: %w", i, err)
		}
		cfgs = append(cfgs, c)
	}
	return cfgs, nil
}
