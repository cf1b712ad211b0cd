// Package pipeline implements the cycle-level out-of-order superscalar core
// model that stands in for the paper's modified SimpleScalar sim-mase.
//
// The model is trace-driven and correct-path-only: it never fetches
// wrong-path instructions, and instead charges a mispredicted branch the
// time from its fetch to its resolution plus the front-end refill. All
// Appendix-A configuration axes are modelled: clock period, front-end
// depth, dispatch/issue/commit width, ROB/IQ/LSQ capacities, wake-up
// latency, scheduler depth, the two-level private data cache hierarchy, and
// main-memory latency in core cycles.
//
// Contesting hooks: a core can be given a ResultFeed (arrived results of
// other cores' retired instructions), a StoreSink (the synchronizing store
// queue), and a retire observer (the core's outgoing global result bus).
// The fetch-counter/pop-counter protocol of the paper maps onto the trace
// index: a core is trailing exactly when the feed already holds a result
// for the next instruction it fetches (Scenario #2); otherwise it executes
// normally and late results are discarded (Scenario #1), except that
// results for the in-flight mispredicted branch gating fetch are kept and
// used to resolve it early (the Figure 5 corner case).
//
// # Event-driven execution
//
// Step executes exactly one clock cycle and remains the reference
// semantics. The engine is additionally event-driven: a cycle in which
// nothing retires, issues, dispatches, or fetches ("a dead cycle") leaves
// every piece of core state untouched, so a run may jump the cycle counter
// straight to the next cycle at which progress is possible. NextEvent, the
// one skip rule, computes that cycle after any Step from the front end's
// readiness, the in-flight completion times, the scheduled wake-ups, the
// front-end arrival, the pending-branch resolution, and the feed's
// NextArrival hint; Advance composes Step with the jump, and a contesting
// system applies the same rule to every core it steps. Because
// only provably-dead cycles are skipped, every counter — including
// Stats.Cycles, which counts skipped cycles exactly as if they had been
// stepped — is bit-identical to single-cycle stepping.
//
// # Data layout
//
// The window is a structure-of-arrays ring: each per-entry field lives in
// its own slice (all carved from one backing allocation), sized to the
// next power of two above the structural window capacity so slot lookup is
// a mask instead of a modulo. A scheduler pass touches only the field
// arrays it needs — completion times during retire, dependence links
// during wake-up — instead of dragging whole 100-byte entries through the
// cache. Ready selection is bitmap-based: a valid bitmap tracks occupied
// issue-queue slots and a ready bitmap the issuable subset, scanned
// oldest-first from the head slot with TrailingZeros64 (see bitmap.go).
// Logical behaviour — including Stats bit-identity — is unchanged: the
// structural window capacity is still the pre-rework ring size, and
// srcReady reproduces the old ring-reuse cutoff for retired producers
// exactly even though the physical ring is larger.
package pipeline

import (
	"fmt"
	"math"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/isa"
	"archcontest/internal/ticks"
	"archcontest/internal/trace"
)

// ResultFeed supplies this core with the retired-instruction results
// broadcast by the other cores of a contesting system.
type ResultFeed interface {
	// ResultAvailable reports whether the result of dynamic instruction idx
	// has arrived at this core by absolute time t.
	ResultAvailable(idx int64, t ticks.Time) bool
	// NextArrival reports the earliest absolute time at which the result of
	// dynamic instruction idx becomes available, when the feed already
	// knows it (the result is in flight or has arrived). ok is false when
	// the result has not been broadcast yet; the caller must then treat the
	// arrival time as unknown. The hint lets the event-driven engine
	// fast-forward a core stalled on a mispredicted branch directly to the
	// cycle its early resolution becomes possible.
	NextArrival(idx int64) (at ticks.Time, ok bool)
	// ConsumeThrough informs the feed that all results up to and including
	// idx have been consumed or may be discarded. The core never consumes
	// past its oldest unresolved mispredicted branch, so arrived branch
	// outcomes stay queryable for early resolution.
	ConsumeThrough(idx int64)
}

// StoreSink receives privately-performed stores; it is the synchronizing
// store queue of a contesting system. A sink that cannot accept stalls
// retirement of the oldest store.
type StoreSink interface {
	CanAccept() bool
	Performed(idx int64, addr uint64)
}

// Options configures the optional behaviour of a core.
type Options struct {
	// WritePolicy selects the private-cache store policy. The zero value
	// is write-through, which contesting requires and stand-alone runs
	// use as well unless they ask for write-back (DESIGN §3).
	WritePolicy cache.WritePolicy
	// RegionSize, if non-zero, records the absolute time of every
	// RegionSize-th retirement (the paper logs every 20 instructions).
	RegionSize int
	// Feed, if non-nil, enables contesting-mode result consumption.
	Feed ResultFeed
	// StoreSink, if non-nil, receives retired stores and may backpressure.
	StoreSink StoreSink
	// OnRetire, if non-nil, observes every retirement (the outgoing GRB).
	OnRetire func(idx int64, at ticks.Time)
	// RetireGate, if non-nil, is consulted before retiring each
	// instruction; returning false stalls retirement this cycle. The
	// contest layer uses it to model synchronous-exception rendezvous
	// (paper Section 4.3): an excepting instruction retires only once every
	// active core has reached it and the parallelized handler has run.
	RetireGate func(idx int64, at ticks.Time) bool
	// NoTrainOnInject disables branch predictor training on injected
	// branches (ablation; the default trains so a trailing core's predictor
	// stays warm).
	NoTrainOnInject bool
	// Checker, if non-nil, observes every executed cycle, retirement, and
	// result injection for verification (internal/invariant). The hooks
	// are nil-guarded single branches: with no checker attached the
	// steady-state loop stays allocation-free and effectively unchanged.
	Checker Checker
}

// Checker observes a core's execution for verification. Implementations
// inspect the core through its read-only Inspect accessor and must not
// mutate any core state.
type Checker interface {
	// AfterCycle runs at the end of every executed Step (fast-forwarded
	// dead cycles, which by construction change no state, are not seen).
	AfterCycle(c *Core)
	// OnRetire runs at each retirement, after the core's own bookkeeping
	// and before the Options.OnRetire observer.
	OnRetire(c *Core, seq int64, at ticks.Time)
	// OnInject runs when the core completes a fetched instruction from an
	// arrived result instead of executing it (contesting Scenario #2).
	OnInject(c *Core, seq int64, at ticks.Time)
}

// Stats aggregates a core's execution counters.
type Stats struct {
	Cycles        int64
	Retired       int64
	Branches      int64
	Mispredicts   int64
	EarlyResolved int64
	Injected      int64
	Forwarded     int64
	L1D, L2D      cache.Stats
	// Prefetches counts issued prefetch fills; always zero for the default
	// (no-prefetcher) configuration.
	Prefetches uint64 `json:",omitempty"`
	FinishTime ticks.Time
}

// IPC reports retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// IPT reports retired instructions per nanosecond (the paper's
// "instructions per time" metric).
func (s Stats) IPT() float64 {
	ns := s.FinishTime.Nanoseconds()
	if ns == 0 {
		return 0
	}
	return float64(s.Retired) / ns
}

// MispredictRate reports mispredictions per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

const noSeq = int64(-1)

// Per-slot state flags (the flags field array).
const (
	flagCompleted uint8 = 1 << iota
	flagInjected
	flagMispredicted
	flagInWheel // entry is linked into a timing-wheel bucket
	flagDiv     // entry is an unpipelined divide (cached from the trace at fetch)
)

// wakeEntry schedules an issue-queue entry whose sources are all complete
// to enter the ready set at a known future cycle.
type wakeEntry struct {
	at, seq int64
}

// Core is one simulated out-of-order processor executing a trace.
//
// The window is a structure-of-arrays ring indexed by seq&ringMask: one
// slice per per-entry field, so each pipeline stage streams through only
// the fields it reads. The physical ring (ringSize slots) is the next
// power of two above the structural window capacity (windowCap); fetch is
// bounded by windowCap, so slot aliasing of in-flight entries is
// impossible and the mask lookup needs no wrap handling.
type Core struct {
	cfg  config.CoreConfig
	opts Options
	clk  ticks.Clock
	rd   trace.Reader // positioned at tailSeq: fetch decodes each instruction once
	pred branch.Predictor
	hier *cache.Hierarchy

	// Hot Options fields mirrored into flat fields at construction, so the
	// per-cycle paths load them without walking the embedded struct.
	feed     ResultFeed
	sink     StoreSink
	gate     func(idx int64, at ticks.Time) bool
	onRetire func(idx int64, at ticks.Time)
	checker  Checker
	// Hot CoreConfig limits mirrored the same way: fetch, dispatch, issue
	// and the next-event scan all test them every cycle.
	width   int
	robSize int64
	iqSize  int
	lsqSize int

	cycle int64

	// Window field arrays, all length ringSize (one backing allocation).
	seqs          []int64 // occupying sequence number (slot-reuse detection)
	dispatchReady []int64 // first cycle the front end can deliver it
	prod1, prod2  []int64 // in-window producer seqs, noSeq if none
	readyHint     []int64 // lower bound on source readiness from retired producers
	storeDep      []int64 // older in-window store to the same address, noSeq if none
	completeCycle []int64 // meaningful only once flagCompleted is set
	valueReady    []int64 // completeCycle + wake-up latency
	depHead       []int64 // first issue-queue entry waiting on this producer, noSeq if none
	depNext       []int64 // next entry in our producer's waiter list, noSeq if none
	wheelNext     []int64 // next slot+1 in our timing-wheel bucket, 0 ends the list
	wakeAt        []int64 // due cycle while flagInWheel is set
	flags         []uint8
	insts         []isa.Inst // the instruction, decoded from the trace at fetch

	ringSize  int64 // physical slots, power of two
	ringMask  int64 // ringSize - 1
	windowCap int64 // structural window capacity (the pre-rework ring size)

	headSeq  int64 // oldest in-flight instruction (next to retire)
	dispSeq  int64 // next instruction to dispatch
	tailSeq  int64 // next instruction to fetch into the window
	fetchEnd int64 // trace length

	// Issue queue as wake lists plus a ready set: a dispatched entry
	// either waits on the depHead list of its first incomplete producer,
	// waits for its known future ready cycle, or is ready. The ready set
	// is the readyBM bitmap (validBM tracks all occupied IQ slots),
	// scanned oldest-first from the head slot. iqCount tracks occupied IQ
	// slots.
	iqCount int
	validBM slotBitmap
	readyBM slotBitmap
	// readyCount mirrors the number of set bits in readyBM, so the issue
	// and next-event paths skip the bitmap scan entirely when nothing is
	// ready (the overwhelmingly common post-issue state).
	readyCount int
	retry      []int64 // scratch: ready entries deferred by the busy divider
	lsq        int     // occupied LSQ entries

	// Future wake-ups live in a timing wheel: bucketHead[at&wheelMask]
	// heads a singly-linked list (slot+1 links through wheelNext, 0 ends)
	// of entries due exactly at cycle `at`, wheelBM marks occupied buckets
	// so the drain and NextEvent jump straight to the next due bucket, and
	// wheelPos is the last drained cycle (every live entry lies in
	// (wheelPos, wheelPos+wheelSize), which keeps bucket indices
	// unambiguous). Wake-ups beyond the wheel horizon — possible only
	// under extreme cache-port queueing — spill into the wakeQ min-heap.
	// wheelDue caches the earliest due cycle of any wheel entry (MaxInt64
	// when the wheel is empty). It may go stale-low after a wheelRemove —
	// harmless: the next drain attempt finds nothing due and recomputes —
	// but never stale-high, so skipping the drain when wheelDue > now is
	// always sound.
	wheelSize  int64
	wheelMask  int64
	wheelPos   int64
	wheelDue   int64
	wheelCount int
	bucketHead []int64
	wheelBM    slotBitmap
	wakeQ      []wakeEntry

	lastWriter [isa.NumRegs]int64 // in-window producer of each register
	regReadyAt [isa.NumRegs]int64 // readiness cycle once the producer retired

	lastStore storeTable // in-window store seq per address

	pendingBranch int64 // mispredicted branch gating fetch, noSeq if none
	divFree       int64 // next cycle the divider is free

	progressed bool // the last Step changed state
	extStalled bool // the last Step was blocked by the gate or store sink

	// retireObserved caches whether any per-retirement observer is attached
	// (regions, checker, OnRetire); when none is, the retire loop skips the
	// absolute-time conversion entirely.
	retireObserved bool

	stats          Stats
	regionSize     int
	regions        []ticks.Time
	retireInRegion int
}

// NewCore builds a core for the configuration and trace. It checks the
// core's own fields and builds each component once, in CoreConfig.Validate's
// order, reporting a component's error as Validate does.
func NewCore(cfg config.CoreConfig, tr *trace.Trace, opts Options) (*Core, error) {
	if err := cfg.ValidateCore(); err != nil {
		return nil, err
	}
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("pipeline: empty trace")
	}
	hier, err := cache.NewHierarchy(cfg.L1D, cfg.L2D, cfg.MemLatencyCycles, opts.WritePolicy)
	if err != nil {
		return nil, fmt.Errorf("config %s: %w", cfg.Name, err)
	}
	pred, err := cfg.Predictor.New()
	if err != nil {
		return nil, fmt.Errorf("config %s: %w", cfg.Name, err)
	}
	if err := hier.AttachPrefetcher(cfg.Prefetch); err != nil {
		return nil, fmt.Errorf("config %s: %w", cfg.Name, err)
	}
	windowCap := int64(cfg.ROBSize + cfg.Width*cfg.FrontEndDepth + 2*cfg.Width)
	ringSize := int64(1)
	for ringSize < windowCap {
		ringSize <<= 1
	}
	c := &Core{
		cfg:           cfg,
		opts:          opts,
		clk:           cfg.Clock(),
		rd:            tr.Reader(0),
		pred:          pred,
		hier:          hier,
		ringSize:      ringSize,
		ringMask:      ringSize - 1,
		windowCap:     windowCap,
		fetchEnd:      int64(tr.Len()),
		wakeQ:         make([]wakeEntry, 0, cfg.IQSize),
		retry:         make([]int64, 0, cfg.IQSize),
		lastStore:     newStoreTable(cfg.LSQSize),
		pendingBranch: noSeq,
		regionSize:    opts.RegionSize,
		feed:          opts.Feed,
		sink:          opts.StoreSink,
		gate:          opts.RetireGate,
		onRetire:      opts.OnRetire,
		checker:       opts.Checker,
		width:         cfg.Width,
		robSize:       int64(cfg.ROBSize),
		iqSize:        cfg.IQSize,
		lsqSize:       cfg.LSQSize,
	}
	// One backing allocation for every int64 field array, plus the flags.
	backing := make([]int64, 12*ringSize)
	field := func() []int64 {
		f := backing[:ringSize:ringSize]
		backing = backing[ringSize:]
		return f
	}
	c.seqs = field()
	c.dispatchReady = field()
	c.prod1 = field()
	c.prod2 = field()
	c.readyHint = field()
	c.storeDep = field()
	c.completeCycle = field()
	c.valueReady = field()
	c.depHead = field()
	c.depNext = field()
	c.wheelNext = field()
	c.wakeAt = field()
	c.flags = make([]uint8, ringSize)
	c.insts = make([]isa.Inst, ringSize)
	c.validBM, c.readyBM = newSlotBitmapPair(ringSize)
	// Size the wheel to cover the common worst-case wake delay (a
	// queue-free memory-latency load plus scheduler and wake-up depth);
	// rarer, longer delays from cache-port queueing overflow into the
	// wakeQ heap.
	horizon := int64(cfg.SchedDepth + cfg.WakeupLatency + cfg.MemLatencyCycles +
		cfg.L1D.LatencyCycles + cfg.L2D.LatencyCycles + 64)
	c.wheelSize = 256
	for c.wheelSize < horizon && c.wheelSize < 8192 {
		c.wheelSize <<= 1
	}
	c.wheelMask = c.wheelSize - 1
	c.wheelDue = math.MaxInt64
	c.bucketHead = make([]int64, c.wheelSize)
	c.wheelBM = newSlotBitmap(c.wheelSize)
	if opts.RegionSize > 0 {
		c.regions = make([]ticks.Time, 0, tr.Len()/opts.RegionSize)
	}
	c.retireObserved = opts.RegionSize > 0 || opts.Checker != nil || opts.OnRetire != nil
	for r := range c.lastWriter {
		c.lastWriter[r] = noSeq
	}
	return c, nil
}

// Config reports the core's configuration.
func (c *Core) Config() config.CoreConfig { return c.cfg }

// Clock reports the core's clock.
func (c *Core) Clock() ticks.Clock { return c.clk }

// Cycle reports the current cycle number. It advances by one per Step and
// may jump forward over dead cycles via SkipTo.
func (c *Core) Cycle() int64 { return c.cycle }

// Now reports the absolute time of the current cycle's clock edge.
func (c *Core) Now() ticks.Time { return c.clk.TimeOfCycle(c.cycle) }

// Retired reports how many instructions have retired.
func (c *Core) Retired() int64 { return c.stats.Retired }

// FetchIndex reports the core's fetch counter: the index of the next
// correct-path instruction it will fetch.
func (c *Core) FetchIndex() int64 { return c.tailSeq }

// Done reports whether the core has retired the whole trace.
func (c *Core) Done() bool { return c.stats.Retired >= c.fetchEnd }

// Stats returns a snapshot of the execution counters, including cache
// statistics.
func (c *Core) Stats() Stats {
	s := c.stats
	s.L1D = c.hier.L1.Stats
	s.L2D = c.hier.L2.Stats
	s.Prefetches = c.hier.Prefetches
	return s
}

// RegionTimes returns the absolute retirement time of each region boundary
// (every RegionSize-th instruction). The returned slice aliases internal
// state and must not be modified.
func (c *Core) RegionTimes() []ticks.Time { return c.regions }

// ResetPredictor clears the branch predictor's learned state. The contest
// layer uses it to model the cold tables of a killed-and-reforked thread:
// the refork destroys the microarchitectural state the thread had trained
// on its core, and the warm-up mispredicts that follow are then paid inside
// the simulation rather than by an external estimate.
func (c *Core) ResetPredictor() { c.pred.Reset() }

// InvalidateCaches drops every line in the core's cache hierarchy while
// keeping hit/miss statistics and port scheduling intact — the cold-cache
// counterpart of ResetPredictor for kill-refork state-transfer modelling.
func (c *Core) InvalidateCaches() { c.hier.Invalidate() }

// Step advances the core by one clock cycle.
func (c *Core) Step() {
	if c.Done() {
		c.cycle++
		c.progressed = true
		return
	}
	c.extStalled = false
	c.progressed = false
	c.doRetire()
	c.doIssue()
	c.doDispatch()
	c.doFetch()
	c.cycle++
	c.stats.Cycles = c.cycle
	if c.checker != nil {
		c.checker.AfterCycle(c)
	}
}

// Progressed reports whether the most recent Step changed any core state
// (a retirement, issue, dispatch, fetch, or branch resolution). A Step
// that did not progress is a dead cycle: re-executing it any number of
// times changes nothing, which is what makes fast-forwarding sound.
// Progress is tracked directly at each state-changing site; the sites
// cover exactly the fields of the old progress-signature comparison
// (retired, early-resolved, dispatch and tail pointers, pending branch,
// IQ occupancy).
func (c *Core) Progressed() bool { return c.progressed }

// SkipTo fast-forwards the cycle counter to the given cycle without
// executing the skipped cycles. The caller must guarantee every skipped
// cycle is dead — NextEvent computes such a bound — and that no external
// input (feed arrival, store-queue drain, gate change) can occur in the
// skipped window. Calls with cycle at or below the current cycle are
// no-ops. Stats.Cycles advances with the jump, exactly as if the dead
// cycles had been stepped.
func (c *Core) SkipTo(cycle int64) {
	if cycle <= c.cycle {
		return
	}
	c.cycle = cycle
	if !c.Done() {
		c.stats.Cycles = cycle
	}
}

// Advance is the event-driven replacement for Step: it executes one cycle
// and fast-forwards the cycle counter over the dead cycles NextEvent proves
// follow it. When the core is blocked on a condition it cannot bound
// locally (a retire gate or store sink), it degrades to single-cycle
// stepping; contested runs apply the same rule through the system
// scheduler.
func (c *Core) Advance() {
	c.Step()
	if next, ok := c.NextEvent(); ok {
		c.SkipTo(next)
	}
}

// dispatchBlocked reports whether the next dispatch is provably blocked on
// a full ROB, LSQ, or issue queue — conditions that persist until a retire
// or issue event, all of which NextEvent bounds.
func (c *Core) dispatchBlocked() bool {
	if c.dispSeq-c.headSeq >= c.robSize {
		return true
	}
	// Counter check first: the LSQ is rarely full.
	if c.lsq >= c.lsqSize && c.insts[c.dispSeq&c.ringMask].IsMem() {
		return true
	}
	fl := c.flags[c.dispSeq&c.ringMask]
	return fl&(flagInjected|flagCompleted) == 0 && c.iqCount >= c.iqSize
}

// NextEvent is the engine's one skip rule. Consulted after any Step,
// progressing or not, it reports a conservative lower bound on the next
// cycle at which the core can make progress, assuming no new external input
// arrives in the meantime: every cycle before the bound is dead. ok is
// false when the core is stalled on a condition it cannot bound locally — a
// refusing retire gate or store sink, whose state is owned by the
// contesting system — in which case the caller must step it next cycle.
//
// Because the rule also runs after a progressing cycle, a stall never
// costs an extra dead Step to detect. The next cycle is provably live
// whenever the front end can still move (fetch has window space, or a
// deliverable instruction can dispatch), and in exactly those cases the
// bound is the current cycle. Otherwise every potential progress source is
// an event bounded below — completions, wake-ups, front-end arrivals,
// branch redirects, the feed's arrival hint for the pending branch — or
// one the rule conservatively refuses to skip over (a committable head, a
// live ready entry), so the cycles up to the bound are dead no matter
// whether the current cycle progressed.
func (c *Core) NextEvent() (cycle int64, ok bool) {
	now := c.cycle
	if c.Done() {
		return now, true
	}
	if c.extStalled {
		return now, false
	}
	if c.progressed {
		if c.pendingBranch == noSeq && c.tailSeq < c.fetchEnd && c.tailSeq-c.headSeq < c.windowCap {
			return now, true // fetch moves next cycle
		}
		if c.dispSeq < c.tailSeq && c.dispatchReady[c.dispSeq&c.ringMask] <= now && !c.dispatchBlocked() {
			return now, true // dispatch moves next cycle
		}
	}
	next := int64(math.MaxInt64)

	// Retire: the completed head commits at its completion cycle. A head
	// that was already committable did not retire for a reason the core
	// cannot see (extStalled covers the known ones); refuse to skip.
	if c.headSeq < c.dispSeq {
		slot := c.headSeq & c.ringMask
		if c.flags[slot]&flagCompleted != 0 {
			cc := c.completeCycle[slot]
			if cc < now {
				return now, false
			}
			if cc < next {
				next = cc
			}
		}
	}

	// Issue: the earliest scheduled wake-up, and ready entries deferred by
	// the busy divider. Entries waiting on an incomplete producer need no
	// term of their own — the producer's own issue is an event that
	// reschedules them. A live non-divider ready entry means the cycle was
	// not dead after all; refuse to skip.
	if len(c.wakeQ) > 0 {
		if at := c.wakeQ[0].at; at < next {
			next = at
		}
	}
	if c.wheelCount > 0 && c.wheelDue < next {
		next = c.wheelDue
	}
	if c.readyCount > 0 {
		// With the divider free, any ready entry — divide or not — could
		// issue, so the cycle is live. Otherwise only a ready set made up
		// entirely of divides defers, to the cycle the divider frees.
		if c.divFree <= now {
			return now, false
		}
		for slot := c.readyBM.next(0); slot >= 0; slot = c.readyBM.next(slot + 1) {
			if c.flags[slot]&flagDiv == 0 {
				return now, false
			}
		}
		if c.divFree < next {
			next = c.divFree
		}
	}

	// Dispatch: the head of the front end becomes renameable. Dispatch
	// blocked on a full ROB/IQ/LSQ resumes on a retire or issue event,
	// which the terms above already cover.
	if c.dispSeq < c.tailSeq {
		if dr := c.dispatchReady[c.dispSeq&c.ringMask]; dr >= now && dr < next {
			next = dr
		}
	}

	// Fetch: a pending mispredicted branch redirects the cycle after it
	// completes, or resolves early when its result arrives on the feed.
	if c.pendingBranch != noSeq {
		slot := c.pendingBranch & c.ringMask
		if c.flags[slot]&flagCompleted != 0 {
			if cc := c.completeCycle[slot] + 1; cc < next {
				next = cc
			}
		}
		if c.feed != nil {
			if at, hinted := c.feed.NextArrival(c.pendingBranch); hinted {
				cc := c.clk.CycleAt(at)
				if c.clk.TimeOfCycle(cc) < at {
					cc++
				}
				if cc < next {
					next = cc
				}
			}
		}
	}

	if next == math.MaxInt64 {
		return now, false
	}
	if next < now {
		next = now
	}
	return next, true
}

// doRetire commits up to Width completed instructions in order.
func (c *Core) doRetire() {
	now := c.cycle
	for n := 0; n < c.width && c.headSeq < c.dispSeq; n++ {
		seq := c.headSeq
		slot := seq & c.ringMask
		if c.flags[slot]&flagCompleted == 0 || c.completeCycle[slot] > now {
			return
		}
		if c.gate != nil && !c.gate(seq, c.clk.TimeOfCycle(now)) {
			c.extStalled = true
			return // exception rendezvous in progress
		}
		in := &c.insts[slot]
		if in.Op == isa.OpStore {
			if c.sink != nil && !c.sink.CanAccept() {
				c.extStalled = true
				return // synchronizing store queue is full
			}
			// Perform the store in the private hierarchy at commit.
			c.hier.Store(in.Addr, now)
			if c.sink != nil {
				c.sink.Performed(seq, in.Addr)
			}
			c.lastStore.del(in.Addr, seq)
		}
		if in.Op == isa.OpBranch {
			c.stats.Branches++
			if c.flags[slot]&flagMispredicted != 0 {
				c.stats.Mispredicts++
			}
		}
		if in.HasDst() && c.lastWriter[in.Dst] == seq {
			// The architectural value now lives in the register file.
			c.regReadyAt[in.Dst] = c.valueReady[slot]
			c.lastWriter[in.Dst] = noSeq
		}
		if in.IsMem() {
			c.lsq--
		}
		c.headSeq++
		c.stats.Retired++
		c.progressed = true
		if c.retireObserved {
			at := c.clk.TimeOfCycle(now)
			if c.regionSize > 0 {
				c.retireInRegion++
				if c.retireInRegion == c.regionSize {
					c.retireInRegion = 0
					c.regions = append(c.regions, at)
				}
			}
			if c.checker != nil {
				c.checker.OnRetire(c, seq, at)
			}
			if c.onRetire != nil {
				c.onRetire(seq, at)
			}
		}
		if c.stats.Retired >= c.fetchEnd {
			c.stats.FinishTime = c.clk.TimeOfCycle(now)
			return
		}
	}
}

// srcReady reports whether the value produced by in-window producer p is
// available, and the cycle it became (or becomes) available.
func (c *Core) srcReady(p int64) (avail bool, readyAt int64) {
	if p == noSeq {
		return true, 0
	}
	slot := p & c.ringMask
	if p < c.headSeq {
		// Producer retired. Its slot normally still holds its wake-up time.
		// The pre-rework ring reused the slot once fetch moved a full
		// structural window past p, after which the value was treated as
		// long architectural (simply ready); reproduce that cutoff from the
		// logical window capacity, not the (larger) physical ring, so
		// timing stays bit-identical.
		if c.tailSeq <= p+c.windowCap {
			return true, c.valueReady[slot]
		}
		return true, 0
	}
	if c.flags[slot]&flagCompleted == 0 {
		return false, 0
	}
	return true, c.valueReady[slot]
}

// blockerOf reports the first incomplete in-window dependence of the entry
// in slot — a source producer, or for loads the store being forwarded from
// — or noSeq when every dependence is complete. An entry waits on one
// blocker at a time and is re-evaluated when it completes.
func (c *Core) blockerOf(slot int64) int64 {
	if p := c.prod1[slot]; p != noSeq && p >= c.headSeq && c.flags[p&c.ringMask]&flagCompleted == 0 {
		return p
	}
	if p := c.prod2[slot]; p != noSeq && p >= c.headSeq && c.flags[p&c.ringMask]&flagCompleted == 0 {
		return p
	}
	if d := c.storeDep[slot]; d != noSeq && d >= c.headSeq && c.flags[d&c.ringMask]&flagCompleted == 0 {
		return d
	}
	return noSeq
}

// readyAtOf reports the earliest cycle the entry in slot can issue once
// every dependence is complete: the latest source wake-up, the
// retired-producer hint, and for a forwarded load the forwarding store's
// completion.
func (c *Core) readyAtOf(slot int64) int64 {
	_, at := c.srcReady(c.prod1[slot])
	if _, a2 := c.srcReady(c.prod2[slot]); a2 > at {
		at = a2
	}
	if h := c.readyHint[slot]; h > at {
		at = h
	}
	if d := c.storeDep[slot]; d != noSeq && d >= c.headSeq {
		if cc := c.completeCycle[d&c.ringMask]; cc > at {
			at = cc
		}
	}
	return at
}

// depState reports the entry's first incomplete in-window dependence and,
// when there is none, the earliest cycle its dependences allow issue. It is
// the fusion of blockerOf and readyAtOf, walking the producer fields once
// per wake-up instead of twice; the checker-facing accessors keep the
// separate definitions, which this must match exactly.
func (c *Core) depState(slot int64) (blocker int64, at int64) {
	if p := c.prod1[slot]; p != noSeq {
		if p >= c.headSeq {
			ps := p & c.ringMask
			if c.flags[ps]&flagCompleted == 0 {
				return p, 0
			}
			at = c.valueReady[ps]
		} else if c.tailSeq <= p+c.windowCap {
			at = c.valueReady[p&c.ringMask]
		}
	}
	if p := c.prod2[slot]; p != noSeq {
		if p >= c.headSeq {
			ps := p & c.ringMask
			if c.flags[ps]&flagCompleted == 0 {
				return p, 0
			}
			if v := c.valueReady[ps]; v > at {
				at = v
			}
		} else if c.tailSeq <= p+c.windowCap {
			if v := c.valueReady[p&c.ringMask]; v > at {
				at = v
			}
		}
	}
	if h := c.readyHint[slot]; h > at {
		at = h
	}
	if d := c.storeDep[slot]; d != noSeq && d >= c.headSeq {
		ds := d & c.ringMask
		if c.flags[ds]&flagCompleted == 0 {
			return d, 0
		}
		if cc := c.completeCycle[ds]; cc > at {
			at = cc
		}
	}
	return noSeq, at
}

// enqueueForIssue places a woken entry seq (occupying slot) into the issue
// wake lists, dropping entries that left the queue while parked (an
// early-resolved branch). Dispatch, whose entries are live by construction,
// calls enqueueLive directly.
func (c *Core) enqueueForIssue(seq, slot int64) {
	if !c.validBM.test(slot) || c.flags[slot]&flagCompleted != 0 {
		return // resolved while waiting (an early-resolved branch)
	}
	c.enqueueLive(seq, slot)
}

// enqueueLive routes a live issue-queue entry to its wake structure:
// waiting on its first incomplete producer, scheduled for a future ready
// cycle, or immediately ready.
func (c *Core) enqueueLive(seq, slot int64) {
	b, at := c.depState(slot)
	if b != noSeq {
		bs := b & c.ringMask
		c.depNext[slot] = c.depHead[bs]
		c.depHead[bs] = seq
		return
	}
	if at > c.cycle {
		c.scheduleWake(seq, slot, at)
	} else {
		c.readyBM.set(slot)
		c.readyCount++
	}
}

// scheduleWake registers a future wake-up for the entry in slot: into its
// timing-wheel bucket when the due cycle is within the wheel horizon, into
// the overflow heap otherwise. Wheel entries are removed eagerly when an
// early-resolved branch leaves the queue, so every linked slot is live;
// overflow entries are dropped lazily at pop under the liveness guard.
func (c *Core) scheduleWake(seq, slot, at int64) {
	if at-c.wheelPos >= c.wheelSize {
		c.wakeQ = pushWake(c.wakeQ, wakeEntry{at: at, seq: seq})
		return
	}
	b := at & c.wheelMask
	c.wheelNext[slot] = c.bucketHead[b]
	c.bucketHead[b] = slot + 1
	c.wakeAt[slot] = at
	c.flags[slot] |= flagInWheel
	c.wheelBM.set(b)
	c.wheelCount++
	if at < c.wheelDue {
		c.wheelDue = at
	}
}

// drainWheel moves every wheel entry due at or before now into the ready
// bitmap, jumping between occupied buckets, and advances the wheel
// position to now so newly scheduled wake-ups stay within the horizon.
func (c *Core) drainWheel(now int64) {
	if c.wheelDue > now {
		c.wheelPos = now
		return
	}
	for c.wheelCount > 0 {
		start := (c.wheelPos + 1) & c.wheelMask
		b := c.wheelBM.firstFrom(start)
		t := c.wheelPos + 1 + ((b - start) & c.wheelMask)
		if t > now {
			c.wheelPos = now
			c.wheelDue = t
			return
		}
		for h := c.bucketHead[b]; h != 0; {
			slot := h - 1
			h = c.wheelNext[slot]
			c.flags[slot] &^= flagInWheel
			c.readyBM.set(slot)
			c.readyCount++
			c.wheelCount--
		}
		c.bucketHead[b] = 0
		c.wheelBM.clear(b)
		c.wheelPos = t
	}
	c.wheelPos = now
	c.wheelDue = math.MaxInt64
}

// wheelRemove unlinks the entry in slot from its timing-wheel bucket (the
// early-resolved-branch path; rare, so a list scan is fine).
func (c *Core) wheelRemove(slot int64) {
	b := c.wakeAt[slot] & c.wheelMask
	if c.bucketHead[b] == slot+1 {
		c.bucketHead[b] = c.wheelNext[slot]
	} else {
		p := c.bucketHead[b] - 1
		for c.wheelNext[p] != slot+1 {
			p = c.wheelNext[p] - 1
		}
		c.wheelNext[p] = c.wheelNext[slot]
	}
	if c.bucketHead[b] == 0 {
		c.wheelBM.clear(b)
	}
	c.flags[slot] &^= flagInWheel
	c.wheelCount--
}

// wakeDependents re-evaluates every entry that was waiting on the producer
// in slot, which has just completed; each either parks on its next
// incomplete dependence or is scheduled for issue.
func (c *Core) wakeDependents(slot int64) {
	for s := c.depHead[slot]; s != noSeq; {
		ss := s & c.ringMask
		next := c.depNext[ss]
		c.depNext[ss] = noSeq
		c.enqueueForIssue(s, ss)
		s = next
	}
	c.depHead[slot] = noSeq
}

// issueEntry schedules execution of the ready instruction seq occupying
// slot. It reports false when the instruction is a divide and the
// unpipelined divider is busy; the caller re-queues it.
func (c *Core) issueEntry(seq, slot, now int64) bool {
	in := &c.insts[slot]
	execLat := in.Op.Latency()
	if in.Op == isa.OpLoad {
		if c.storeDep[slot] != noSeq {
			// An older store to the same address forwards its data: from
			// the LSQ while in-window (its data is ready — the wake lists
			// admitted us only after its completion cycle), or from the
			// write buffer after it retires.
			execLat = 1
			c.stats.Forwarded++
		} else {
			execLat = c.hier.Load(in.Addr, now)
		}
	}
	if in.Op == isa.OpDiv {
		if c.divFree > now {
			return false
		}
		c.divFree = now + int64(c.cfg.SchedDepth) + int64(execLat)
	}
	c.flags[slot] |= flagCompleted
	c.completeCycle[slot] = now + int64(c.cfg.SchedDepth) + int64(execLat)
	// Dependents wake through the bypass network: they can issue
	// execLat + WakeupLatency cycles after the producer issues, with
	// their own scheduler pipeline overlapping the producer's (wake-up
	// 0 means back-to-back for single-cycle operations).
	c.valueReady[slot] = now + int64(execLat) + int64(c.cfg.WakeupLatency)
	c.validBM.clear(slot)
	c.iqCount--
	c.progressed = true
	c.wakeDependents(slot)
	return true
}

// doIssue selects up to Width ready instructions, oldest first, and
// schedules their completion. Only woken entries are examined: entries
// waiting on a producer are untouched until it completes, and entries with
// a known future ready cycle sit in the timing wheel, or in the overflow
// heap past the wheel's horizon, until it is due.
func (c *Core) doIssue() {
	now := c.cycle
	if c.readyCount == 0 && c.wheelDue > now && len(c.wakeQ) == 0 {
		// Nothing ready, due, or woken this cycle. Skipping the pass leaves
		// wheelPos behind the current cycle, which is safe: a lagging
		// position only makes the scheduleWake horizon check conservative
		// (spilling to the overflow heap earlier), and bucket positions stay
		// unambiguous because inserts bound every entry within wheelSize of
		// it.
		return
	}
	for len(c.wakeQ) > 0 && c.wakeQ[0].at <= now {
		var w wakeEntry
		c.wakeQ, w = popWake(c.wakeQ)
		slot := w.seq & c.ringMask
		// The seq guard drops wake-ups whose window slot was recycled: an
		// early-resolved branch can leave a far-future wake-up behind, and
		// with a small window its slot can be reused by a younger fetch
		// before the wake-up falls due.
		if c.seqs[slot] != w.seq || !c.validBM.test(slot) || c.flags[slot]&flagCompleted != 0 {
			continue
		}
		c.readyBM.set(slot)
		c.readyCount++
	}
	c.drainWheel(now)
	issued := 0
	retry := c.retry[:0]
	headSlot := c.headSeq & c.ringMask
	for issued < c.width && c.readyCount > 0 {
		slot := c.readyBM.firstFrom(headSlot)
		if slot < 0 {
			break
		}
		c.readyBM.clear(slot)
		c.readyCount--
		seq := c.headSeq + ((slot - headSlot) & c.ringMask)
		if !c.issueEntry(seq, slot, now) {
			retry = append(retry, slot)
			continue
		}
		issued++
	}
	for _, slot := range retry {
		c.readyBM.set(slot)
	}
	c.readyCount += len(retry)
	c.retry = retry[:0]
}

// producerOf resolves the current producer of register r at dispatch time.
func (c *Core) producerOf(r isa.RegID) (prod int64, hint int64) {
	if r == isa.NoReg {
		return noSeq, 0
	}
	if p := c.lastWriter[r]; p != noSeq {
		return p, 0
	}
	return noSeq, c.regReadyAt[r]
}

// doDispatch renames and dispatches up to Width front-end instructions into
// the window. Injected instructions complete here (value written straight
// into the register file, stealing write ports within the core's width).
func (c *Core) doDispatch() {
	now := c.cycle
	for n := 0; n < c.width && c.dispSeq < c.tailSeq; n++ {
		seq := c.dispSeq
		slot := seq & c.ringMask
		if c.dispatchReady[slot] > now {
			return
		}
		if seq-c.headSeq >= c.robSize {
			return // ROB full
		}
		in := &c.insts[slot]
		isMem := in.IsMem()
		if isMem && c.lsq >= c.lsqSize {
			return // LSQ full
		}
		fl := c.flags[slot]
		needIQ := fl&(flagInjected|flagCompleted) == 0 // early-resolved branches skip the IQ too
		if needIQ && c.iqCount >= c.iqSize {
			return // issue queue full
		}

		if isMem {
			c.lsq++
		}
		switch {
		case fl&flagInjected != 0:
			// Result injection: complete at rename. Branches were already
			// completed in fetch; register producers write their value now;
			// stores become ready immediately and perform at commit.
			if fl&flagCompleted == 0 {
				c.flags[slot] = fl | flagCompleted
				c.completeCycle[slot] = now
				c.valueReady[slot] = now
			}
			c.prod1[slot], c.prod2[slot], c.storeDep[slot] = noSeq, noSeq, noSeq
			c.stats.Injected++
			if in.HasDst() {
				c.lastWriter[in.Dst] = noSeq
				c.regReadyAt[in.Dst] = now
			}
		case fl&flagCompleted != 0:
			// Branch resolved early by an arrived result before dispatch:
			// nothing left to execute.
			c.prod1[slot], c.prod2[slot], c.storeDep[slot] = noSeq, noSeq, noSeq
		default:
			p1, h1 := c.producerOf(in.Src1)
			p2, h2 := c.producerOf(in.Src2)
			c.prod1[slot], c.prod2[slot] = p1, p2
			if h2 > h1 {
				h1 = h2
			}
			c.readyHint[slot] = h1
			dep := noSeq
			if in.Op == isa.OpLoad {
				if d, ok := c.lastStore.get(in.Addr); ok {
					dep = d
				}
			}
			c.storeDep[slot] = dep
			if in.Op == isa.OpStore {
				c.lastStore.put(in.Addr, seq)
			}
			if in.HasDst() {
				c.lastWriter[in.Dst] = seq
			}
			c.iqCount++
			c.validBM.set(slot)
			c.enqueueLive(seq, slot)
		}
		c.dispSeq++
		c.progressed = true
	}
}

// doFetch brings up to Width instructions into the window, predicting
// branches and consulting the result feed for injection and early branch
// resolution.
func (c *Core) doFetch() {
	now := c.cycle
	var t ticks.Time
	if c.feed != nil {
		t = c.clk.TimeOfCycle(now)
	}

	if c.pendingBranch != noSeq {
		bslot := c.pendingBranch & c.ringMask
		bfl := c.flags[bslot]
		switch {
		case bfl&flagCompleted != 0 && c.completeCycle[bslot] < now:
			// Redirect happened last cycle; fetch resumes this cycle.
			c.pendingBranch = noSeq
			c.progressed = true
		case c.feed != nil && c.feed.ResultAvailable(c.pendingBranch, t):
			// Figure 5 corner case: the branch's retired outcome arrived
			// from another core before this core resolved it. Resolve early;
			// the core is now trailing and will consume results at fetch.
			if bfl&flagCompleted == 0 || c.completeCycle[bslot] > now {
				if bfl&flagCompleted == 0 && c.validBM.test(bslot) {
					// The branch leaves the issue queue without issuing; its
					// ready bit and wheel entry are dropped eagerly,
					// overflow-heap entries lazily.
					c.validBM.clear(bslot)
					if c.readyBM.test(bslot) {
						c.readyBM.clear(bslot)
						c.readyCount--
					}
					if bfl&flagInWheel != 0 {
						c.wheelRemove(bslot)
					}
					c.iqCount--
				}
				c.flags[bslot] |= flagCompleted
				c.completeCycle[bslot] = now
				c.valueReady[bslot] = now
				c.stats.EarlyResolved++
				c.progressed = true
			}
			return // redirect consumes this cycle; fetch resumes next cycle
		default:
			return // still waiting on the branch
		}
	}

	fetched := 0
	for fetched < c.width {
		if c.tailSeq >= c.fetchEnd {
			break
		}
		if c.tailSeq-c.headSeq >= c.windowCap {
			break // window structurally full
		}
		seq := c.tailSeq
		slot := seq & c.ringMask
		in := &c.insts[slot]
		c.rd.Next(in)
		// Reset only the fields every entry needs; producer links are
		// written at dispatch, completion times at completion.
		c.seqs[slot] = seq
		c.dispatchReady[slot] = now + int64(c.cfg.FrontEndDepth)
		c.depHead[slot] = noSeq
		c.depNext[slot] = noSeq
		c.flags[slot] = 0
		if in.Op == isa.OpDiv {
			// Cache the divide class in the flags so the event scan can test
			// divider deferral from the flags alone. An injected divide
			// overwrites the flag below, but injected entries complete at
			// fetch and never reach the ready bitmap.
			c.flags[slot] = flagDiv
		}
		mispredicted := false
		if c.feed != nil && c.feed.ResultAvailable(seq, t) {
			c.flags[slot] = flagInjected
			if c.checker != nil {
				c.checker.OnInject(c, seq, t)
			}
			c.feed.ConsumeThrough(seq)
			if in.Op == isa.OpBranch {
				// Outcome known: complete in the fetch stage. Training keeps
				// the predictor warm for when this core takes the lead.
				c.flags[slot] |= flagCompleted
				c.completeCycle[slot] = now
				c.valueReady[slot] = now
				if !c.opts.NoTrainOnInject {
					c.pred.Update(in.PC, in.Taken)
				}
			}
		} else if in.Op == isa.OpBranch {
			if c.pred.Predict(in.PC) != in.Taken {
				c.flags[slot] = flagMispredicted
				mispredicted = true
				c.pendingBranch = seq
			}
			// Train at fetch: the trace-driven model resolves the direction
			// immediately, which stands in for speculative history update
			// plus in-order counter training.
			c.pred.Update(in.PC, in.Taken)
		}
		c.tailSeq++
		c.progressed = true
		fetched++
		if in.Op == isa.OpBranch {
			if mispredicted {
				break // fetch stalls until resolution
			}
			if in.Taken {
				break // one taken branch per fetch group
			}
		}
	}

	if c.feed != nil {
		// Scenario #1: late results are popped and discarded — but never
		// past the oldest unresolved mispredicted branch, whose outcome may
		// still resolve it early.
		limit := c.tailSeq - 1
		if c.pendingBranch != noSeq && c.pendingBranch-1 < limit {
			limit = c.pendingBranch - 1
		}
		if limit >= 0 {
			c.feed.ConsumeThrough(limit)
		}
	}
}

// pushWake and popWake maintain a binary min-heap of scheduled wake-ups,
// ordered by due cycle (ties by age for determinism).
func wakeLess(a, b wakeEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func pushWake(h []wakeEntry, v wakeEntry) []wakeEntry {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !wakeLess(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popWake(h []wakeEntry) ([]wakeEntry, wakeEntry) {
	v := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && wakeLess(h[r], h[l]) {
			m = r
		}
		if !wakeLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h, v
}
