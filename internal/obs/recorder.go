package obs

import (
	"archcontest/internal/contest"
	"archcontest/internal/pipeline"
	"archcontest/internal/sim"
	"archcontest/internal/ticks"
)

// Recorder observes one run — single-core or contested — and records
// events into a preallocated ring. Build a fresh Recorder per run.
//
// For contested runs pass it as contest.Options.Observer; for single-core
// runs pass CoreChecker(0) as sim.RunOptions.Checker. After the run call
// FinishContest or FinishRun with the result, then read Metrics, Events,
// or WriteChromeTrace.
type Recorder struct {
	opts     Options
	interval ticks.Time
	ring     ring

	sys *contest.System // nil for single-core runs

	cores []*coreRecorder

	// Aggregates maintained outside the ring — exact even when the ring
	// wraps. Slices are sized by the highest core index seen.
	retired    []int64
	lastRetire []ticks.Time
	leadWon    []int64
	occupancy  []ticks.Duration
	saturated  []bool

	leader      int
	leadChanges int64
	leaderSince ticks.Time
	maxRetired  int64

	excEvery   int64
	killRefork bool
	lastExcSeq int64

	// Finalization state.
	finished   bool
	endTime    ticks.Time
	benchmark  string
	names      []string
	winner     int
	insts      int64
	finalStats []pipeline.Stats
}

// NewRecorder builds a recorder.
func NewRecorder(opts Options) *Recorder {
	opts.applyDefaults()
	interval := ticks.Time(ticks.FromNanoseconds(opts.SampleIntervalNs))
	if interval < 1 {
		interval = 1 // sub-tick intervals clamp to one sample per retiring tick
	}
	return &Recorder{
		opts:       opts,
		interval:   interval,
		ring:       ring{buf: make([]Event, opts.Capacity)},
		winner:     -1,
		lastExcSeq: -1,
	}
}

// grow sizes the per-core aggregate state for core index i.
func (r *Recorder) grow(i int) {
	for len(r.retired) <= i {
		r.retired = append(r.retired, 0)
		r.lastRetire = append(r.lastRetire, 0)
		r.leadWon = append(r.leadWon, 0)
		r.occupancy = append(r.occupancy, 0)
		r.saturated = append(r.saturated, false)
	}
}

// CoreChecker returns the per-core observer hook for core i. It
// implements both the contest.Observer method and the single-core
// attachment point (sim.RunOptions.Checker for core 0).
func (r *Recorder) CoreChecker(core int) pipeline.Checker {
	r.grow(core)
	for len(r.cores) <= core {
		r.cores = append(r.cores, nil)
	}
	cr := &coreRecorder{r: r, core: int32(core), nextSample: r.interval}
	r.cores[core] = cr
	return cr
}

// Attach implements contest.Observer.
func (r *Recorder) Attach(sys *contest.System) {
	r.sys = sys
	r.grow(sys.NumCores() - 1)
	copts := sys.Options()
	r.excEvery = copts.ExceptionEvery
	r.killRefork = copts.ExceptionKillRefork
}

// AfterStep implements contest.Observer: lead-change and saturation
// tracking. It is called after every stepped core cycle, so it is a
// handful of compares in the common case.
func (r *Recorder) AfterStep(sys *contest.System, core int) {
	if lc := sys.LeadChanges(); lc != r.leadChanges {
		// The stepped core just took the lead, at its latest retirement.
		at := r.lastRetire[core]
		prev := r.leader
		r.occupancy[prev] += ticks.Duration(at - r.leaderSince)
		r.leader = sys.Leader()
		r.leadChanges = lc
		r.leaderSince = at
		r.leadWon[r.leader]++
		r.ring.append(Event{
			Kind:    KindLeadChange,
			Core:    int32(r.leader),
			Time:    at,
			Seq:     int64(prev),
			Retired: r.retired[r.leader],
		})
	}
	for i := range r.saturated {
		if !r.saturated[i] && sys.IsSaturated(i) {
			// The FIFO overflowed on one of the stepped core's broadcasts,
			// at its latest retirement; its clock has already moved on.
			r.saturated[i] = true
			r.ring.append(Event{
				Kind: KindSaturated,
				Core: int32(i),
				Time: r.lastRetire[core],
				Seq:  -1,
			})
		}
	}
}

// FinishContest finalizes the recorder with a contested result: it closes
// the last leadership stint and emits one final sample per core from the
// result's exact end-of-run counters.
func (r *Recorder) FinishContest(res contest.Result) {
	r.finished = true
	r.endTime = res.Time
	r.benchmark = res.Benchmark
	r.names = res.Cores
	r.winner = res.Winner
	r.insts = res.Insts
	r.finalStats = res.PerCore
	r.grow(len(res.PerCore) - 1)
	r.occupancy[r.leader] += ticks.Duration(res.Time - r.leaderSince)
	top := int64(0)
	for _, st := range res.PerCore {
		if st.Retired > top {
			top = st.Retired
		}
	}
	for i, st := range res.PerCore {
		r.ring.append(sampleEvent(int32(i), res.Time, st, top-st.Retired))
	}
}

// FinishRun finalizes the recorder with a single-core result.
func (r *Recorder) FinishRun(res sim.Result) {
	r.finished = true
	r.endTime = res.Time
	r.benchmark = res.Benchmark
	r.names = []string{res.Core}
	r.insts = res.Insts
	r.finalStats = []pipeline.Stats{res.Stats}
	r.grow(0)
	r.occupancy[0] += ticks.Duration(res.Time - r.leaderSince)
	r.ring.append(sampleEvent(0, res.Time, res.Stats, 0))
}

// Events returns the retained events in order. The ring keeps the newest
// Capacity events; Dropped reports how many older ones were overwritten.
func (r *Recorder) Events() []Event { return r.ring.events() }

// Dropped reports how many events the ring overwrote.
func (r *Recorder) Dropped() int64 { return r.ring.dropped() }

// LeadChanges reports the observed lead-change count.
func (r *Recorder) LeadChanges() int64 { return r.leadChanges }

func sampleEvent(core int32, at ticks.Time, st pipeline.Stats, lag int64) Event {
	return Event{
		Kind:          KindSample,
		Core:          core,
		Time:          at,
		Seq:           -1,
		Retired:       st.Retired,
		Injected:      st.Injected,
		EarlyResolved: st.EarlyResolved,
		Mispredicts:   st.Mispredicts,
		Branches:      st.Branches,
		L1DAccesses:   int64(st.L1D.Accesses),
		L1DMisses:     int64(st.L1D.Misses),
		L2DMisses:     int64(st.L2D.Misses),
		Cycles:        st.Cycles,
		Lag:           lag,
	}
}

// coreRecorder is the per-core pipeline.Checker: retire-rate sampling on
// the fixed interval, and the exception/refork event stream. All its work
// sits behind the existing nil-guarded hooks, and the per-retire fast
// path is two compares.
type coreRecorder struct {
	r          *Recorder
	core       int32
	nextSample ticks.Time
	memLat     int64 // MemLatencyCycles, captured at the first retirement
	injected   int64
}

// AfterCycle implements pipeline.Checker. Cycle-granular work would cost
// an order of magnitude more than sampling on retirements; everything the
// recorder needs is visible at retire time, so this stays empty.
func (cr *coreRecorder) AfterCycle(c *pipeline.Core) {}

// OnRetire implements pipeline.Checker.
func (cr *coreRecorder) OnRetire(c *pipeline.Core, seq int64, at ticks.Time) {
	r := cr.r
	done := seq + 1
	r.retired[cr.core] = done
	r.lastRetire[cr.core] = at
	if done > r.maxRetired {
		r.maxRetired = done
	}
	if cr.memLat == 0 {
		cr.memLat = int64(c.Config().MemLatencyCycles)
	}
	if r.excEvery > 0 && done%r.excEvery == 0 {
		kind := KindException
		if r.killRefork && seq == r.lastExcSeq {
			// A later arrival at an already-serviced exception: under
			// terminate-and-refork this core's thread was killed and
			// reforked rather than running the parallelized handler.
			kind = KindRefork
		}
		r.lastExcSeq = seq
		r.ring.append(Event{Kind: kind, Core: cr.core, Time: at, Seq: seq})
	}
	if at < cr.nextSample {
		return
	}
	r.ring.append(sampleEvent(cr.core, at, c.Stats(), r.maxRetired-done))
	cr.nextSample = at - at%cr.r.interval + cr.r.interval
}

// OnInject implements pipeline.Checker: count GRB-injected completions
// (the cumulative count also rides along every sample).
func (cr *coreRecorder) OnInject(c *pipeline.Core, seq int64, at ticks.Time) {
	cr.injected++
}

var (
	_ contest.Observer = (*Recorder)(nil)
	_ pipeline.Checker = (*coreRecorder)(nil)
)
