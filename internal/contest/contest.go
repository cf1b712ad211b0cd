// Package contest implements architectural contesting — the paper's primary
// contribution. N cores of a heterogeneous CMP concurrently execute the
// same dynamic instruction stream; each broadcasts its retired results on
// its global result bus (GRB) with a configurable core-to-core latency, and
// each consumes the other cores' results through per-sender result FIFOs.
//
// A core whose fetch counter has caught up with a result FIFO's pop counter
// is trailing (the paper's Scenario #2): it pairs arriving results with the
// instructions it fetches and completes them without executing them, which
// keeps it within a bounded lagging distance of the leader. When the
// workload behaviour changes, the core best suited to the new region drains
// its FIFO, runs ahead, and becomes the leader — no phase detection, no
// reconfiguration, no migration.
//
// Stores are performed redundantly in each core's private (write-through)
// hierarchy and merged below it by a synchronizing store queue, SRT-style:
// one merged instance proceeds to the shared level once every active core
// has performed the store. A core whose peak consume rate cannot keep up
// with the leader overflows its result FIFO and is detected as a saturated
// lagger; contesting is disabled for it, exactly as the paper prescribes.
package contest

import (
	"fmt"

	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
)

// MaxLagLimit is the largest MaxLag a contest accepts: every core keeps a
// result log of MaxLag rounded up to a power of two, 8 bytes an entry, so
// this bounds a log at 8 MiB.
const MaxLagLimit = 1 << 20

// Options configures a contested run.
type Options struct {
	// LatencyNs is the core-to-core (GRB propagation) latency in
	// nanoseconds. Zero selects the paper's default of 1ns.
	LatencyNs float64
	// MaxLag is the result-FIFO capacity in instructions: the maximum
	// lagging distance before a core is declared a saturated lagger. The
	// bound must cover the deepest window plus the drain transient of a
	// slow memory phase, so that only a *structural* rate mismatch (a
	// follower whose peak consume rate is below the leader's retire rate)
	// trips it. Zero selects 4096.
	MaxLag int
	// StoreQueueCap is the synchronizing store queue capacity in merged
	// store entries. A full queue backpressures retirement of stores.
	// Zero selects 256.
	StoreQueueCap int
	// RegionSize, if non-zero, logs per-region retirement times on every
	// core (the system-level region log is the winner's).
	RegionSize int
	// NoTrainOnInject disables predictor training on injected branches.
	NoTrainOnInject bool
	// ExceptionEvery, if non-zero, raises a synchronous exception at every
	// ExceptionEvery-th instruction: no core retires it before every active
	// core has reached it and the handler has run (paper Section 4.3).
	ExceptionEvery int64
	// ExceptionHandlerNs is the handler service time once all cores arrive
	// (0 selects 50ns when exceptions are enabled).
	ExceptionHandlerNs float64
	// ExceptionKillRefork models the older terminate-and-refork scheme
	// instead of the paper's parallelized handler: each non-designated
	// core adds a refork penalty of ExceptionReforkNs (0 selects 500ns).
	ExceptionKillRefork bool
	// ExceptionReforkNs is the per-core refork penalty under
	// ExceptionKillRefork.
	ExceptionReforkNs float64
	// ReforkWarmupNs charges an additional state-transfer interval per
	// reforked (non-designated) core under ExceptionKillRefork, on top of
	// ExceptionReforkNs: the time to re-establish the architectural and TLB
	// state the kill destroyed. Zero charges nothing, preserving existing
	// results bit-for-bit.
	ReforkWarmupNs float64
	// ReforkColdPredictor, under ExceptionKillRefork, resets the branch
	// predictor tables of every non-designated core when a kill-refork
	// barrier forms: the reforked thread re-trains from cold state, and the
	// warm-up mispredicts that follow are paid inside the simulation.
	ReforkColdPredictor bool
	// ReforkColdCaches, under ExceptionKillRefork, likewise invalidates the
	// non-designated cores' private cache hierarchies at each kill-refork
	// (statistics and port state are preserved).
	ReforkColdCaches bool
	// LeadChangeWarmupNs charges a post-hoc state-transfer interval per
	// lead change, modelling contesting variants where handing leadership
	// to another core is not free (e.g. migrating privileged state). It is
	// pure accounting: the charge is added to Result.Time after the run and
	// never alters the contest's dynamics. Zero charges nothing.
	LeadChangeWarmupNs float64
	// MaxTimeNs aborts runs exceeding the bound (0 = a generous default
	// derived from the trace length).
	MaxTimeNs float64
	// SingleStep forces the reference scheduler, which steps every cycle
	// of every core in time order, instead of the event-driven one, which
	// steps only the cycles pipeline.Core.NextEvent cannot prove dead. The
	// two produce bit-identical results (the golden-equivalence tests lock
	// this); single-stepping is the reference semantics and a debugging
	// aid.
	SingleStep bool
	// Observer, if non-nil, attaches a verification observer to the system
	// (see internal/invariant). It never alters the run's result and is
	// excluded from result-cache keys; campaign layers must bypass their
	// caches when an observer is attached, or the checks silently don't
	// run.
	Observer Observer `json:"-"`
}

// Observer observes a contested run for verification. Implementations
// inspect the system through its read-only accessors and must not mutate
// any simulation state.
type Observer interface {
	// Attach is called once from NewSystem, after the system is fully
	// constructed and before the first cycle.
	Attach(sys *System)
	// CoreChecker returns the per-core pipeline checker for core i, or nil.
	// It is called during system construction, before Attach.
	CoreChecker(core int) pipeline.Checker
	// AfterStep runs after every stepped core cycle (fast-forward jumps,
	// which change no state, are not seen). core is the stepped core.
	AfterStep(sys *System, core int)
}

// Validate reports the first option NewSystem cannot run with, naming its
// field: the key a spec's contest object takes. No duration, MaxLag or
// StoreQueueCap may be negative (zero selects a default where the field's
// comment says so), and MaxLag may not exceed MaxLagLimit.
func (o Options) Validate() error {
	if o.MaxLag < 0 {
		return fmt.Errorf("contest: MaxLag %d must be >= 1 (0 selects the default)", o.MaxLag)
	}
	if o.MaxLag > MaxLagLimit {
		return fmt.Errorf("contest: MaxLag %d exceeds the limit of %d", o.MaxLag, MaxLagLimit)
	}
	if o.StoreQueueCap < 0 {
		return fmt.Errorf("contest: StoreQueueCap %d must be >= 1 (0 selects the default)", o.StoreQueueCap)
	}
	for _, f := range []struct {
		key string
		ns  float64
	}{
		{"LatencyNs", o.LatencyNs},
		{"ExceptionHandlerNs", o.ExceptionHandlerNs},
		{"ExceptionReforkNs", o.ExceptionReforkNs},
		{"ReforkWarmupNs", o.ReforkWarmupNs},
		{"LeadChangeWarmupNs", o.LeadChangeWarmupNs},
		{"MaxTimeNs", o.MaxTimeNs},
	} {
		if f.ns < 0 {
			return fmt.Errorf("contest: negative %s %g (must be >= 0)", f.key, f.ns)
		}
	}
	return nil
}

func (o *Options) applyDefaults(n int) {
	if o.LatencyNs == 0 {
		o.LatencyNs = 1.0
	}
	if o.MaxLag == 0 {
		o.MaxLag = 4096
	}
	if o.StoreQueueCap == 0 {
		o.StoreQueueCap = 256
	}
	if o.ExceptionEvery > 0 && o.ExceptionHandlerNs == 0 {
		o.ExceptionHandlerNs = 50
	}
	if o.ExceptionKillRefork && o.ExceptionReforkNs == 0 {
		o.ExceptionReforkNs = 500
	}
	if o.MaxTimeNs == 0 {
		// At least 100ns, and 100ns per instruction of trace: two orders
		// of magnitude beyond any sane IPT in this repository.
		o.MaxTimeNs = 100 + 100*float64(n)
	}
}

// Result summarizes a contested run.
type Result struct {
	// Benchmark is the trace name; Cores the contestant names.
	Benchmark string
	Cores     []string
	// Insts is the trace length.
	Insts int64
	// Time is when the first core retired the last instruction.
	Time ticks.Time
	// Winner is the index of the core that finished first.
	Winner int
	// LeadChanges counts how often the identity of the most-retired core
	// changed during the run.
	LeadChanges int64
	// Saturated marks cores whose result FIFO overflowed (contesting was
	// disabled for them).
	Saturated []bool
	// PerCore holds each core's final counters.
	PerCore []pipeline.Stats
	// Regions is the winning core's per-region retirement log, if enabled.
	Regions []ticks.Time
	// StateTransfer is the total warm-up time charged for state transfer:
	// the kill-refork warm-up intervals (ReforkWarmupNs, already inside
	// Time via the rendezvous release) plus the post-hoc lead-change
	// charges (LeadChangeWarmupNs, added to Time after the run). Zero when
	// neither knob is set.
	StateTransfer ticks.Duration
}

// IPT reports the system's instructions per nanosecond.
func (r Result) IPT() float64 {
	ns := r.Time.Nanoseconds()
	if ns == 0 {
		return 0
	}
	return float64(r.Insts) / ns
}

// resultLog is one sending core's global result bus: the arrival time of
// each result it has broadcast, indexed by instruction. Results leave in
// retirement order, so every receiver's result FIFO for this sender is the
// index range [pop, next) of the one shared log, where pop is the
// receiver's pop counter. A non-saturated receiver never lags more than
// MaxLag results behind, so a ring of at least MaxLag entries holds every
// FIFO without aliasing.
type resultLog struct {
	arr  []ticks.Time // power-of-two ring
	mask int64
	next int64 // next index the sender will broadcast
}

// newBus builds the global result buses of an n-core system with FIFO
// capacity maxLag: one log per sending core, one feed per receiving core.
func newBus(n, maxLag int) ([]resultLog, []feed) {
	size := 1
	for size < maxLag {
		size <<= 1
	}
	logs := make([]resultLog, n)
	feeds := make([]feed, n)
	for i := range logs {
		logs[i] = resultLog{arr: make([]ticks.Time, size), mask: int64(size - 1)}
		feeds[i] = feed{logs: logs, self: i, wakeOn: pipeline.NoSeq}
	}
	return logs, feeds
}

// feed is one core's view of the other cores' result buses; it implements
// pipeline.ResultFeed. Results below the pop counter have been consumed or
// discarded and are invisible.
type feed struct {
	logs     []resultLog // every core's log, shared; the receiver's own is skipped
	self     int
	pop      int64
	disabled bool // saturated lagger: contesting is off for this core
	// wakeOn is the one broadcast index that can wake this core early
	// under the event-driven scheduler: its pending mispredicted branch
	// (pipeline.NoSeq when none, and always under single-stepping).
	wakeOn int64
}

func (f *feed) ResultAvailable(idx int64, t ticks.Time) bool {
	if f.disabled || idx < f.pop {
		return false
	}
	for j := range f.logs {
		l := &f.logs[j]
		if j != f.self && idx < l.next && l.arr[idx&l.mask] <= t {
			return true
		}
	}
	return false
}

// NextArrival reports the earliest arrival of result idx over all senders
// that have broadcast it (it may still be in flight).
func (f *feed) NextArrival(idx int64) (ticks.Time, bool) {
	if f.disabled || idx < f.pop {
		return 0, false
	}
	var best ticks.Time
	found := false
	for j := range f.logs {
		l := &f.logs[j]
		if j == f.self || idx >= l.next {
			continue
		}
		if at := l.arr[idx&l.mask]; !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}

func (f *feed) ConsumeThrough(idx int64) {
	if idx >= f.pop {
		f.pop = idx + 1
	}
}

var _ pipeline.ResultFeed = (*feed)(nil)
