package invariant

// SystemObserver asserts the paper's contest invariants over a running
// contesting system, on top of a full per-core CoreChecker for every
// contestant:
//
//   - bounded lagging distance: for every non-saturated follower and every
//     sender, the sender's broadcast counter never runs more than MaxLag
//     results ahead of the follower's pop counter, so the result FIFO
//     never holds more than its capacity (paper §4.1.4);
//   - feed bookkeeping: each sender's broadcast counter equals its retired
//     count, and the pop counter never passes the receiver's fetch
//     counter;
//   - GRB-consumed results match the oracle: a core may complete a fetched
//     instruction from the feed only if some other core retired exactly
//     that instruction at least one propagation latency earlier — and the
//     per-core CoreChecker separately guarantees both cores' retirement
//     streams replay the oracle's reference execution, so the consumed
//     result is the ground-truth architectural result;
//   - leader accounting: the system's leader index and lead-change count
//     match an independently-maintained mirror that switches leaders only
//     when a core's retired count strictly exceeds the current leader's
//     (a core "actually catches up");
//   - synchronizing store queue: occupancy stays within capacity, and the
//     merged store stream leaving the queue is exactly a prefix of the
//     oracle's program-order store stream — same indices, same addresses,
//     same data, each store merged exactly once (SRT-style redundant
//     store merging, paper §4.1.3);
//   - exception rendezvous: no core retires an excepting instruction
//     before every active core has reached it (paper §4.3).

import (
	"fmt"

	"archcontest/internal/contest"
	"archcontest/internal/oracle"
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
	"archcontest/internal/trace"
)

// SystemObserver implements contest.Observer. Build a fresh one per run
// and pass it in contest.Options.Observer.
type SystemObserver struct {
	opts      Options
	onViolate func(error)
	tr        *trace.Trace
	exec      *oracle.Execution

	sys     *contest.System
	cores   []*contestCoreChecker
	latency ticks.Duration
	maxLag  int64
	sqCap   int
	excEvry int64

	// retireAt[core][seq] is the absolute retirement time of seq on core,
	// or -1 until it retires; retired[core] mirrors each core's retired
	// count from observed retirements only.
	retireAt [][]ticks.Time
	retired  []int64

	// the independent leader mirror
	leader      int
	leadChanges int64

	merged     int64 // merged stores checked against the oracle stream
	violations int
}

// NewSystemObserver builds an observer for one contested run of tr.
func NewSystemObserver(tr *trace.Trace, opts Options) *SystemObserver {
	return &SystemObserver{
		opts:      opts,
		onViolate: opts.report(),
		tr:        tr,
		exec:      oracle.Run(tr),
	}
}

// Violations reports the total violations observed, including those of the
// per-core checkers.
func (o *SystemObserver) Violations() int {
	n := o.violations
	for _, cc := range o.cores {
		if cc != nil {
			n += cc.CoreChecker.Violations()
		}
	}
	return n
}

// CoreCheckerFor returns the per-core checker of core i (nil before the
// system is built).
func (o *SystemObserver) CoreCheckerFor(i int) *CoreChecker {
	if i >= len(o.cores) || o.cores[i] == nil {
		return nil
	}
	return o.cores[i].CoreChecker
}

// Oracle returns the canonical in-order execution of the trace.
func (o *SystemObserver) Oracle() *oracle.Execution { return o.exec }

// MergedStores reports how many merged stores have drained from the
// synchronizing store queue (each checked against the oracle stream).
func (o *SystemObserver) MergedStores() int64 { return o.merged }

func (o *SystemObserver) violate(format string, args ...any) {
	o.violations++
	o.onViolate(fmt.Errorf("invariant: contest: "+format, args...))
}

// CoreChecker implements contest.Observer.
func (o *SystemObserver) CoreChecker(core int) pipeline.Checker {
	for len(o.cores) <= core {
		o.cores = append(o.cores, nil)
	}
	cc := &contestCoreChecker{
		CoreChecker: NewCoreChecker(o.tr, o.opts),
		obs:         o,
		core:        core,
	}
	o.cores[core] = cc
	return cc
}

// Attach implements contest.Observer.
func (o *SystemObserver) Attach(sys *contest.System) {
	o.sys = sys
	copts := sys.Options()
	o.latency = ticks.FromNanoseconds(copts.LatencyNs)
	o.maxLag = int64(copts.MaxLag)
	o.sqCap = copts.StoreQueueCap
	o.excEvry = copts.ExceptionEvery
	n := sys.NumCores()
	o.retired = make([]int64, n)
	o.retireAt = make([][]ticks.Time, n)
	for i := range o.retireAt {
		at := make([]ticks.Time, o.tr.Len())
		for j := range at {
			at[j] = -1
		}
		o.retireAt[i] = at
	}

	// The merged store stream must be exactly a prefix of the oracle's
	// program-order store stream.
	stores := o.exec.Stores()
	prev := sys.Queue().Merged
	sys.Queue().Merged = func(idx int64, addr uint64) {
		if prev != nil {
			prev(idx, addr)
		}
		if o.merged >= int64(len(stores)) {
			o.violate("store %d merged but the oracle has only %d stores", idx, len(stores))
			return
		}
		want := stores[o.merged]
		o.merged++
		if idx != want.Seq || addr != want.Addr {
			o.violate("merged store #%d is (%d,%#x), oracle order wants (%d,%#x)",
				o.merged-1, idx, addr, want.Seq, want.Addr)
		}
	}
}

func (o *SystemObserver) noteRetire(core int, seq int64, at ticks.Time) {
	if o.retireAt == nil {
		return // observer not attached (never happens in a real run)
	}
	if o.retireAt[core][seq] >= 0 {
		o.violate("core %d retired %d twice", core, seq)
	}
	o.retireAt[core][seq] = at
	o.retired[core] = seq + 1

	// Exception rendezvous: an excepting instruction retires only after
	// every active core has reached it.
	if o.excEvry > 0 && (seq+1)%o.excEvry == 0 {
		for j := range o.retired {
			if j == core || o.sys.IsSaturated(j) {
				continue
			}
			if o.retired[j] < seq {
				o.violate("core %d retired excepting instruction %d while core %d is only at %d",
					core, seq, j, o.retired[j])
			}
		}
	}
}

func (o *SystemObserver) noteInject(c *pipeline.Core, core int, seq int64, at ticks.Time) {
	if o.retireAt == nil {
		return
	}
	if fetch := c.FetchIndex(); seq != fetch {
		o.violate("core %d injected %d but its fetch counter is %d", core, seq, fetch)
	}
	// The consumed result must have been broadcast: some other core
	// retired exactly this instruction at least one propagation latency
	// before the consuming core's current cycle.
	for j := range o.retireAt {
		if j == core {
			continue
		}
		if rt := o.retireAt[j][seq]; rt >= 0 && rt.Add(o.latency) <= at {
			return
		}
	}
	o.violate("core %d consumed result %d at %v before any other core's broadcast could arrive", core, seq, at)
}

// AfterStep implements contest.Observer.
func (o *SystemObserver) AfterStep(sys *contest.System, core int) {
	// Leader accounting: mirror the paper's rule — the lead changes only
	// when the stepped core's retired count strictly exceeds the current
	// leader's — from independently-observed retirement counts.
	if core != o.leader && o.retired[core] > o.retired[o.leader] {
		o.leader = core
		o.leadChanges++
	}
	if sys.Leader() != o.leader {
		o.violate("system leader %d, mirror says %d", sys.Leader(), o.leader)
	}
	if sys.LeadChanges() != o.leadChanges {
		o.violate("system counted %d lead changes, mirror %d", sys.LeadChanges(), o.leadChanges)
	}

	// Store-queue occupancy.
	if p := sys.Queue().Pending(); p > o.sqCap {
		o.violate("store queue holds %d entries, capacity %d", p, o.sqCap)
	}

	// Lagging distance and feed bookkeeping for every non-saturated
	// receiver.
	n := sys.NumCores()
	for recv := 0; recv < n; recv++ {
		if sys.IsSaturated(recv) {
			continue
		}
		fetch := sys.Core(recv).FetchIndex()
		for snd := 0; snd < n; snd++ {
			pop, next, ok := sys.FeedState(recv, snd)
			if !ok {
				continue
			}
			if next != o.retired[snd] {
				o.violate("receiver %d has seen %d broadcasts from %d, which retired %d", recv, next, snd, o.retired[snd])
			}
			if lag := next - pop; lag > o.maxLag {
				o.violate("receiver %d lags %d results behind %d, FIFO capacity %d", recv, lag, snd, o.maxLag)
			}
			if pop > fetch {
				o.violate("receiver %d consumed through %d past its fetch counter %d", recv, pop, fetch)
			}
		}
	}
}

// Finish runs the end-of-run checks against the final result: the winner
// retired the whole trace, every core's retirement stream is an in-order
// prefix of it, and the merged store stream is a prefix of the oracle's.
func (o *SystemObserver) Finish(res contest.Result) {
	if o.retired[res.Winner] != int64(o.tr.Len()) {
		o.violate("winner %d retired %d of %d instructions", res.Winner, o.retired[res.Winner], o.tr.Len())
	}
	if o.merged > int64(len(o.exec.Stores())) {
		o.violate("merged %d stores, oracle has %d", o.merged, len(o.exec.Stores()))
	}
	for i, cc := range o.cores {
		if cc == nil {
			continue
		}
		if got, want := cc.CoreChecker.nextRetire, o.retired[i]; got != want {
			o.violate("core %d checker saw %d retirements, observer %d", i, got, want)
		}
	}
}

// contestCoreChecker is the per-core checker of a contested run: the full
// single-core CoreChecker, plus the system-level retirement/injection
// bookkeeping.
type contestCoreChecker struct {
	*CoreChecker
	obs  *SystemObserver
	core int
}

func (cc *contestCoreChecker) OnRetire(c *pipeline.Core, seq int64, at ticks.Time) {
	cc.CoreChecker.OnRetire(c, seq, at)
	cc.obs.noteRetire(cc.core, seq, at)
}

func (cc *contestCoreChecker) OnInject(c *pipeline.Core, seq int64, at ticks.Time) {
	cc.obs.noteInject(c, cc.core, seq, at)
}
