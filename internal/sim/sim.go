// Package sim provides the run harnesses: single-core execution of a trace
// on a configuration, with optional per-region time logging, and the result
// types shared by the experiment drivers.
package sim

import (
	"context"
	"fmt"
	"math"

	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
	"archcontest/internal/trace"
)

// RegionSize is the paper's region granularity for the Section 2
// methodology: the number of cycles to retire every 20 dynamic instructions
// is logged.
const RegionSize = 20

// EngineVersion names the observable semantics of the simulation engine
// (pipeline, cache, branch, contest — everything a result depends on
// besides the trace, configuration, and options). It is a component of
// every resultcache key: bump it whenever an engine change alters any
// result bit, so persisted campaign caches invalidate themselves instead
// of serving stale numbers. Trace-content changes need no bump — the
// trace fingerprint in the key covers them.
const EngineVersion = "engine-v2"

// Result summarizes one run.
type Result struct {
	// Benchmark and Core identify the run.
	Benchmark, Core string
	// Insts is the number of retired instructions.
	Insts int64
	// Time is the completion time.
	Time ticks.Time
	// Stats are the core's counters (for contested runs, the winning
	// core's).
	Stats pipeline.Stats
	// Regions, if requested, holds the absolute retirement time of every
	// RegionSize-th instruction.
	Regions []ticks.Time
}

// IPT reports instructions per nanosecond, the paper's performance metric.
func (r Result) IPT() float64 {
	ns := r.Time.Nanoseconds()
	if ns == 0 {
		return 0
	}
	return float64(r.Insts) / ns
}

// RunOptions configures a single-core run.
type RunOptions struct {
	// LogRegions enables 20-instruction region time logging.
	LogRegions bool
	// WritePolicy selects the private-cache store policy. The zero value
	// is write-through, the policy contesting forces, so a stand-alone run
	// models the same caches as a contestant (DESIGN §3).
	WritePolicy cache.WritePolicy
	// MaxCycles aborts runs that exceed the bound (0 = no bound); a
	// defensive limit for exploration over arbitrary configurations.
	MaxCycles int64
	// SingleStep forces naive cycle-by-cycle stepping instead of the
	// event-driven fast-forward path. Both produce bit-identical results;
	// single-stepping is the reference semantics, kept for debugging and
	// the golden-equivalence tests.
	SingleStep bool
	// Checker, if non-nil, attaches a verification observer to the core
	// (see internal/invariant). It is excluded from result-cache keys and
	// never alters the run's result; campaign layers must bypass their
	// caches when a checker is attached, or the checks silently don't run.
	Checker Checker `json:"-"`
	// Progress, if non-nil, reports retirement progress from the run loop
	// (see Meter). Like Checker, it is excluded from result-cache keys and
	// never alters the run's result.
	Progress func(done, total int64) `json:"-"`
}

// Checker observes a core's execution for verification.
type Checker = pipeline.Checker

// progressSteps is how finely a Meter divides a run: it reports each time
// retirement crosses another 1/progressSteps of the trace.
const progressSteps = 256

// Meter reports a run's retirement progress to a callback: (done, total)
// each time done, the instructions retired so far, crosses another 1/256
// of the trace's total, so at most 256 times, and never with a smaller
// done than before. A run loop calls Observe after every step, at the cost
// of one compare between reports.
type Meter struct {
	fn          func(done, total int64)
	total, next int64
}

// NewMeter returns the meter of a run of total instructions reporting to
// fn. With a nil fn, or no instructions, it never reports.
func NewMeter(fn func(done, total int64), total int64) Meter {
	m := Meter{fn: fn, total: total, next: math.MaxInt64}
	if fn != nil && total > 0 {
		m.next = m.after(0)
	}
	return m
}

// Observe reports that done instructions have retired.
func (m *Meter) Observe(done int64) {
	if done >= m.next {
		m.report(done)
	}
}

func (m *Meter) report(done int64) {
	m.next = m.after(done)
	m.fn(done, m.total)
}

// after returns the first count past done that lies in a later 1/256 of
// the trace: ceil(k*total/256) for k = floor(done*256/total) + 1. Past the
// end it exceeds total, so the meter falls silent.
func (m *Meter) after(done int64) int64 {
	k := done*progressSteps/m.total + 1
	return (k*m.total + progressSteps - 1) / progressSteps
}

// pollStride is how many scheduler iterations pass between context polls
// in the run loops. Each iteration is a progressing step (or a
// fast-forward over dead cycles), so a poll every 4096 iterations bounds
// the cancellation latency to a few microseconds of simulated work while
// keeping the check off the per-cycle hot path entirely.
const pollStride = 4096

// Poller is a run loop's cancellation poll, shared by sim.RunContext and
// both contest schedulers: a loop calls Stopped once per iteration and
// returns ctx.Err() when it reports true. Only every pollStride-th call
// reads the context's Done channel; a context that cannot end (Background)
// costs one nil check per call.
type Poller struct {
	done <-chan struct{}
	n    int
}

// NewPoller returns the poller of a loop running under ctx.
func NewPoller(ctx context.Context) Poller { return Poller{done: ctx.Done()} }

// Stopped reports whether ctx had ended at the last stride boundary.
func (p *Poller) Stopped() bool {
	if p.done == nil {
		return false
	}
	if p.n++; p.n < pollStride {
		return false
	}
	p.n = 0
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Run executes the trace to completion on a single core.
func Run(cfg config.CoreConfig, tr *trace.Trace, opts RunOptions) (Result, error) {
	return RunContext(context.Background(), cfg, tr, opts)
}

// RunContext is Run with cooperative cancellation: the run loop polls
// ctx.Done() every pollStride scheduler iterations (never per cycle, see
// Poller) and returns ctx.Err() when the context ends.
func RunContext(ctx context.Context, cfg config.CoreConfig, tr *trace.Trace, opts RunOptions) (Result, error) {
	popts := pipeline.Options{WritePolicy: opts.WritePolicy, Checker: opts.Checker}
	if opts.LogRegions {
		popts.RegionSize = RegionSize
	}
	core, err := pipeline.NewCore(cfg, tr, popts)
	if err != nil {
		return Result{}, err
	}
	poll := NewPoller(ctx)
	progress := NewMeter(opts.Progress, int64(tr.Len()))
	for !core.Done() {
		if opts.SingleStep {
			core.Step()
		} else {
			core.Advance()
		}
		progress.Observe(core.Retired())
		if opts.MaxCycles > 0 && core.Cycle() > opts.MaxCycles {
			return Result{}, fmt.Errorf("sim: %s on %s exceeded %d cycles", tr.Name(), cfg.Name, opts.MaxCycles)
		}
		if poll.Stopped() {
			return Result{}, ctx.Err()
		}
	}
	st := core.Stats()
	return Result{
		Benchmark: tr.Name(),
		Core:      cfg.Name,
		Insts:     st.Retired,
		Time:      st.FinishTime,
		Stats:     st,
		Regions:   core.RegionTimes(),
	}, nil
}

// MustRun is Run for known-good inputs; it panics on error.
func MustRun(cfg config.CoreConfig, tr *trace.Trace, opts RunOptions) Result {
	r, err := Run(cfg, tr, opts)
	if err != nil {
		panic(err)
	}
	return r
}
