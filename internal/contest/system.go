package contest

import (
	"context"
	"fmt"

	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
	"archcontest/internal/trace"
)

// System is an N-way contesting multi-core executing one trace.
type System struct {
	cores   []*pipeline.Core
	logs    []resultLog // one global result bus per sending core
	feeds   []feed      // one pop counter per receiving core
	queue   *StoreQueue
	latency ticks.Duration
	opts    Options
	tr      *trace.Trace

	leadChanges int64
	leader      int
	exc         *exceptionCoordinator

	// wake and live, allocated only by the event-driven scheduler, hold
	// each core's next scheduled cycle and that cycle's clock edge: every
	// cycle of core i before wake[i] is known to be dead. A core's own
	// step sets them from its NextEvent; another core's retirement pulls
	// them earlier only when it broadcasts the result that can resolve the
	// core's pending mispredicted branch (see broadcast).
	wake []int64
	live []ticks.Time
}

// NewSystem builds a contesting system over the given core configurations.
// Private hierarchies run write-through, as contesting requires.
func NewSystem(cfgs []config.CoreConfig, tr *trace.Trace, opts Options) (*System, error) {
	if len(cfgs) < 2 {
		return nil, fmt.Errorf("contest: need at least two cores, got %d", len(cfgs))
	}
	if len(cfgs) > 8 {
		return nil, fmt.Errorf("contest: %d cores exceeds the supported 8", len(cfgs))
	}
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("contest: empty trace")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.applyDefaults(tr.Len())
	lat := ticks.FromNanoseconds(opts.LatencyNs)
	if lat < 1 {
		return nil, fmt.Errorf("contest: core-to-core latency %gns below one time-unit", opts.LatencyNs)
	}

	n := len(cfgs)
	s := &System{
		latency: lat,
		opts:    opts,
		tr:      tr,
		queue:   NewStoreQueue(n, opts.StoreQueueCap),
		cores:   make([]*pipeline.Core, n),
	}
	s.logs, s.feeds = newBus(n, opts.MaxLag)
	if opts.ExceptionEvery > 0 {
		s.exc = &exceptionCoordinator{
			sys:      s,
			interval: opts.ExceptionEvery,
			handler:  ticks.FromNanoseconds(opts.ExceptionHandlerNs),
			barrier:  -1,
		}
		if opts.ExceptionKillRefork {
			s.exc.refork = ticks.FromNanoseconds(opts.ExceptionReforkNs)
			s.exc.warmup = ticks.FromNanoseconds(opts.ReforkWarmupNs)
			s.exc.coldPred = opts.ReforkColdPredictor
			s.exc.coldCaches = opts.ReforkColdCaches
		}
	}
	for i, cfg := range cfgs {
		i := i
		popts := pipeline.Options{
			WritePolicy:     cache.WriteThrough,
			RegionSize:      opts.RegionSize,
			Feed:            &s.feeds[i],
			StoreSink:       coreSink{q: s.queue, core: i},
			OnRetire:        func(idx int64, at ticks.Time) { s.broadcast(i, idx, at) },
			NoTrainOnInject: opts.NoTrainOnInject,
		}
		if s.exc != nil {
			popts.RetireGate = func(idx int64, at ticks.Time) bool { return s.exc.gate(i, idx, at) }
		}
		if opts.Observer != nil {
			popts.Checker = opts.Observer.CoreChecker(i)
		}
		core, err := pipeline.NewCore(cfg, tr, popts)
		if err != nil {
			return nil, fmt.Errorf("contest: core %d (%s): %w", i, cfg.Name, err)
		}
		s.cores[i] = core
	}
	if opts.Observer != nil {
		opts.Observer.Attach(s)
	}
	return s, nil
}

// NumCores reports the number of contesting cores.
func (s *System) NumCores() int { return len(s.cores) }

// Core returns core i, for read-only inspection by verification observers.
func (s *System) Core(i int) *pipeline.Core { return s.cores[i] }

// Trace reports the trace the system is executing.
func (s *System) Trace() *trace.Trace { return s.tr }

// Options reports the system's options with defaults applied.
func (s *System) Options() Options { return s.opts }

// Leader reports the index of the current leading core.
func (s *System) Leader() int { return s.leader }

// LeadChanges reports how often the leader has changed so far.
func (s *System) LeadChanges() int64 { return s.leadChanges }

// IsSaturated reports whether core i has been declared a saturated lagger.
func (s *System) IsSaturated(i int) bool { return s.feeds[i].disabled }

// Queue returns the synchronizing store queue, for verification observers
// (read-only, except for installing the Merged callback before the run).
func (s *System) Queue() *StoreQueue { return s.queue }

// FeedState reports the state of receiver's result FIFO for sender: the
// receiver's pop counter and the next index the sender will broadcast; the
// FIFO holds [pop, next). ok is false when receiver == sender.
func (s *System) FeedState(receiver, sender int) (pop, next int64, ok bool) {
	if receiver == sender {
		return 0, 0, false
	}
	return s.feeds[receiver].pop, s.logs[sender].next, true
}

// broadcast is core `from`'s global result bus: the retired result of
// instruction idx reaches every other core after the propagation latency.
// A receiver already lagging MaxLag results behind has a full FIFO: it is a
// saturated lagger, contesting is disabled for it, and its stores stop
// gating the store queue.
func (s *System) broadcast(from int, idx int64, at ticks.Time) {
	l := &s.logs[from]
	if idx != l.next {
		panic(fmt.Sprintf("contest: out-of-order GRB broadcast %d from core %d, expected %d", idx, from, l.next))
	}
	arrival := at.Add(s.latency)
	l.arr[idx&l.mask] = arrival
	l.next++
	maxLag := int64(s.opts.MaxLag)
	for to := range s.feeds {
		f := &s.feeds[to]
		if to == from || f.disabled {
			continue
		}
		if idx-f.pop >= maxLag {
			s.declareSaturated(to)
		} else if idx == f.wakeOn {
			s.wakeAt(to, arrival)
		}
	}
}

// wakeAt pulls idle core i's next scheduled cycle in to its first clock
// edge at or after t. broadcast calls it for the one result that can wake
// an idle core early: the outcome of its pending mispredicted branch,
// which fetch resolves on arrival (the Figure 5 corner case). Every other
// side effect of a retirement needs no wake-up. A fetch that can move
// never leaves its core idle, and any other fetch waits on the core's own
// retirements; the store queue, saturation and the exception rendezvous
// are consulted only at a retire candidate, which NextEvent already
// bounds, and a core they block reports no bound and steps every cycle.
func (s *System) wakeAt(i int, t ticks.Time) {
	c := s.cores[i]
	clk := c.Clock()
	cc := clk.CycleAt(t)
	if clk.TimeOfCycle(cc) < t {
		cc++
	}
	if cc < c.Cycle() {
		cc = c.Cycle()
	}
	if cc < s.wake[i] {
		s.wake[i], s.live[i] = cc, clk.TimeOfCycle(cc)
	}
}

func (s *System) declareSaturated(core int) {
	s.feeds[core].disabled = true
	s.queue.DisableCore(core)
}

// ctxPollStride matches sim.ctxPollStride: scheduler iterations between
// context polls. The check never runs per simulated cycle.
const ctxPollStride = 4096

// Run executes the contest to completion: the system finishes when the
// first core retires the whole trace. The event-driven scheduler is used
// unless Options.SingleStep selects the reference cycle-by-cycle loop; both
// produce bit-identical results.
func (s *System) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: both scheduler loops
// poll ctx.Done() every ctxPollStride iterations and return ctx.Err() when
// the context ends. A Background context costs one nil check at entry.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	if s.opts.SingleStep {
		return s.runSingleStep(ctx)
	}
	return s.runEventDriven(ctx)
}

// runSingleStep is the reference scheduler: one cycle of one core at a
// time, always the core with the earliest next clock edge.
func (s *System) runSingleStep(ctx context.Context) (Result, error) {
	maxTime := ticks.Time(ticks.FromNanoseconds(s.opts.MaxTimeNs))
	n := len(s.cores)
	done := ctx.Done()
	var poll int
	for {
		if done != nil {
			if poll++; poll >= ctxPollStride {
				poll = 0
				select {
				case <-done:
					return Result{}, ctx.Err()
				default:
				}
			}
		}
		// Step the core with the earliest next clock edge; ties resolve by
		// core index, the paper's round-robin handshake order.
		min := 0
		for i := 1; i < n; i++ {
			if s.cores[i].Now() < s.cores[min].Now() {
				min = i
			}
		}
		c := s.cores[min]
		if c.Now() > maxTime {
			return Result{}, fmt.Errorf("contest: %s exceeded %gns without finishing", s.tr.Name(), s.opts.MaxTimeNs)
		}
		c.Step()
		if r := c.Retired(); r > s.cores[s.leader].Retired() && min != s.leader {
			s.leader = min
			s.leadChanges++
		}
		if s.opts.Observer != nil {
			s.opts.Observer.AfterStep(s, min)
		}
		if c.Done() {
			return s.result(min), nil
		}
	}
}

// runEventDriven is the event-driven scheduler: the single-step schedule
// with every provably dead cycle deleted. Each iteration steps the core
// whose next scheduled cycle has the earliest clock edge (ties to the lower
// core index, the reference scheduler's order), after jumping it over the
// dead cycles before that cycle. Every other core's next state change lies
// at or beyond that edge, since wakeAt pulls a core in whenever another
// core's retirement could wake it sooner.
//
// Every progressing step of every core therefore happens at the same
// cycle, in the same global order, with the same inputs, so all reported
// numbers — including each core's dead-cycle-inflated Stats.Cycles,
// reconstructed at the end by settle — are bit-identical to runSingleStep.
// A system runs once: the scheduler state it allocates here is not reset.
func (s *System) runEventDriven(ctx context.Context) (Result, error) {
	n := len(s.cores)
	s.wake = make([]int64, n)
	s.live = make([]ticks.Time, n)
	for i, c := range s.cores {
		s.wake[i], s.live[i] = c.Cycle(), c.Now()
	}
	maxTime := ticks.Time(ticks.FromNanoseconds(s.opts.MaxTimeNs))
	obs := s.opts.Observer
	done := ctx.Done()
	var poll int
	for {
		if done != nil {
			if poll++; poll >= ctxPollStride {
				poll = 0
				select {
				case <-done:
					return Result{}, ctx.Err()
				default:
				}
			}
		}
		// A linear scan: contests have at most eight cores.
		i, t := 0, s.live[0]
		for j := 1; j < n; j++ {
			if lj := s.live[j]; lj < t {
				i, t = j, lj
			}
		}
		if t > maxTime {
			return Result{}, fmt.Errorf("contest: %s exceeded %gns without finishing", s.tr.Name(), s.opts.MaxTimeNs)
		}
		c := s.cores[i]
		c.SkipTo(s.wake[i])
		c.Step()
		if ret := c.Retired(); ret > s.cores[s.leader].Retired() && i != s.leader {
			s.leader = i
			s.leadChanges++
		}
		if obs != nil {
			obs.AfterStep(s, i)
		}
		if c.Done() {
			s.settle(i)
			return s.result(i), nil
		}
		s.reschedule(i)
	}
}

// reschedule applies the shared skip rule to core i after its step. A core
// the rule cannot bound (blocked on the store queue or the exception
// rendezvous, whose state changes on other cores' retirements and whose
// gate consult itself mutates the coordinator) steps again next cycle.
func (s *System) reschedule(i int) {
	c := s.cores[i]
	next, ok := c.NextEvent()
	if !ok {
		next = c.Cycle()
	}
	s.wake[i], s.live[i] = next, c.Clock().TimeOfCycle(next)
	s.feeds[i].wakeOn = c.Inspect().PendingBranch()
}

// settle reconstructs the losing cores' cycle counters at the moment the
// single-step scheduler would have exited: each non-winner keeps being
// stepped through its dead tail cycles until its clock edge passes the
// winner's finishing edge (cores after the winner in index order stop at
// the first edge at or past it, cores before it at the first edge strictly
// past it — the tie order of the reference scheduler).
func (s *System) settle(winner int) {
	w := s.cores[winner]
	finish := w.Clock().TimeOfCycle(w.Cycle() - 1)
	for j, c := range s.cores {
		if j == winner {
			continue
		}
		clk := c.Clock()
		cc := clk.CycleAt(finish)
		if j > winner {
			if clk.TimeOfCycle(cc) < finish {
				cc++
			}
		} else {
			cc++
		}
		c.SkipTo(cc)
	}
}

func (s *System) result(winner int) Result {
	res := Result{
		Benchmark:   s.tr.Name(),
		Insts:       int64(s.tr.Len()),
		Time:        s.cores[winner].Stats().FinishTime,
		Winner:      winner,
		LeadChanges: s.leadChanges,
		Saturated:   make([]bool, len(s.cores)),
		Regions:     s.cores[winner].RegionTimes(),
	}
	if s.exc != nil {
		res.StateTransfer = s.exc.transfer
	}
	if s.opts.LeadChangeWarmupNs > 0 && s.leadChanges > 0 {
		// Post-hoc accounting: leadership hand-offs are charged against the
		// final time without having altered the contest's dynamics.
		st := ticks.FromNanoseconds(s.opts.LeadChangeWarmupNs) * ticks.Duration(s.leadChanges)
		res.StateTransfer += st
		res.Time = res.Time.Add(st)
	}
	for i, c := range s.cores {
		res.Saturated[i] = s.IsSaturated(i)
		res.Cores = append(res.Cores, c.Config().Name)
		res.PerCore = append(res.PerCore, c.Stats())
	}
	return res
}

// Run builds and runs a contesting system in one call.
func Run(cfgs []config.CoreConfig, tr *trace.Trace, opts Options) (Result, error) {
	return RunContext(context.Background(), cfgs, tr, opts)
}

// RunContext builds and runs a contesting system in one call, with
// cooperative cancellation (see System.RunContext).
func RunContext(ctx context.Context, cfgs []config.CoreConfig, tr *trace.Trace, opts Options) (Result, error) {
	s, err := NewSystem(cfgs, tr, opts)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(ctx)
}
