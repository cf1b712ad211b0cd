// Package explore is the XpScalar stand-in: a simulated-annealing
// design-space exploration that customizes a core configuration for a
// workload. It varies the same free axes the paper's tool varies —
// superscalar width, register-file/ROB size, issue-queue size, load/store
// queue size, L1 and L2 cache geometry, and clock frequency — plus a
// predictor axis the paper never had (bimodal/gshare/TAGE geometry), with
// the dependent parameters (pipeline depths, wake-up latency, memory and
// cache latencies) derived by the technology model in internal/config.
//
// The annealer is parallel without giving up determinism. Proposals and
// acceptance tests consume two independent RNG streams split from the
// seed, so the walk is defined purely by (seed, trace, schedule), and a
// lookahead window of K candidate neighbors is drawn speculatively under
// the assumption that the preceding candidates are rejected: the batch is
// evaluated concurrently, the accept/reject decisions are applied in
// sequence order, and on an acceptance the remaining speculative
// candidates (whose proposals a sequential annealer would never have
// drawn) are discarded and the proposal stream is rewound to the accepted
// candidate's state. The accepted-move trajectory is therefore identical
// for every K, including K=1 (pure sequential) — a property the tests
// lock. A separate parallel-tempering mode runs M chains on a temperature
// ladder with periodic replica exchange.
package explore

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"archcontest/internal/branch"
	"archcontest/internal/config"
	"archcontest/internal/experiments"
	"archcontest/internal/fastmodel"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
	"archcontest/internal/xrand"
)

// Discrete menus for each free axis, spanning the Appendix A palette.
var (
	clockMenu = []float64{0.19, 0.23, 0.27, 0.29, 0.31, 0.33, 0.37, 0.41, 0.45, 0.49}
	widthMenu = []int{2, 3, 4, 5, 6, 7, 8}
	robMenu   = []int{32, 64, 128, 256, 512, 1024}
	iqMenu    = []int{16, 32, 64, 128}
	lsqMenu   = []int{32, 64, 128, 256}
	setsMenu  = []int{32, 128, 256, 1024, 2048, 4096, 8192, 16384, 32768}
	assocMenu = []int{1, 2, 4, 8, 16}
	blockMenu = []int{8, 16, 32, 64, 128, 256, 512}
	l1SizeMax = 256 << 10
	l1SizeMin = 4 << 10
	l2SizeMax = 4 << 20
	l2SizeMin = 64 << 10
	// predMenu orders the predictor palette from cheapest to richest, so a
	// one-step bump is a meaningful hardware increment like on every other
	// axis. Index 2 is the Appendix-A default.
	predMenu = []branch.Config{
		{Kind: "bimodal", LogSize: 12},
		{Kind: "gshare", LogSize: 12, HistoryBits: 8},
		branch.DefaultConfig(), // gshare 12/10
		{Kind: "gshare", LogSize: 14, HistoryBits: 12},
		{Kind: "gshare", LogSize: 16, HistoryBits: 14},
		{Kind: "tage", LogSize: 11, TageTables: 4, TageLogSize: 8, TageTagBits: 8, TageMinHist: 2, TageMaxHist: 32},
		branch.DefaultTAGEConfig(), // 6 tables, hist 4..64
		{Kind: "tage", LogSize: 12, TageTables: 8, TageLogSize: 10, TageTagBits: 10, TageMinHist: 2, TageMaxHist: 64},
	}
	// replMenu orders the replacement policies by hardware cost: random
	// keeps no per-line state, SRRIP two bits per line, true LRU (the
	// Appendix-A default, selected by the empty name) full recency order.
	// Index 2 is the default. prefMenu likewise runs none -> next-line ->
	// stride; index 0 is the default. Both apply through FreeParams, so the
	// technology model sees them like any other free axis.
	replMenu = []string{"random", "srrip", ""}
	prefMenu = []string{"", "nextline", "stride"}
)

// Options configures an annealing run.
type Options struct {
	// Seed drives the annealing schedule deterministically.
	Seed uint64
	// Steps is the number of annealing moves (default 200). The
	// temperature cools geometrically from hotTemp to coldTemp over them.
	Steps int
	// Lookahead is the speculative batch size K: how many candidate
	// neighbors are drawn and evaluated concurrently per round (default 1,
	// the sequential annealer). Any value produces the identical
	// accepted-move trajectory for the same seed; larger values trade
	// wasted speculative evaluations for wall-clock parallelism.
	Lookahead int
	// Parallelism bounds concurrent candidate evaluations (default NumCPU).
	Parallelism int
	// Cache, if non-nil, memoizes design-point evaluations across runs
	// under the same content-addressed keys the campaign Lab uses.
	Cache *resultcache.Cache
	// Log, if non-nil, receives a timed span per executed design-point
	// simulation (cache hits record nothing), for the campaign timeline.
	Log *obs.ArtifactLog
	// Progress, if non-nil, observes every accepted move.
	Progress func(step int, cfg config.CoreConfig, ipt float64)
	// FastFilter enables the fast-model first pass: every proposed
	// candidate is appraised by the interval model (internal/fastmodel)
	// before any detailed simulation, and the appraisal is spent two ways.
	// A candidate whose fast estimate sits below the incumbent's by more
	// than FastMargin plus the Metropolis acceptance range at the current
	// temperature is rejected without a detailed run — the filter consumes
	// the same acceptance draw the detailed walk would have consumed on
	// its near-certain rejection, so the surviving trajectory stays
	// stream-aligned with the unfiltered walk. And within a lookahead
	// window, speculation past the first candidate the fast model predicts
	// accepted is deferred: those candidates are usually discarded by the
	// acceptance anyway, and the rare survivor is evaluated on demand,
	// which never changes a decision. Comparing fast estimates on both
	// sides cancels the model's systematic bias; the walk diverges from
	// the unfiltered one only when the fast model rules out a candidate
	// the detailed engine would have accepted. With the filter off the
	// run is bit-identical to prior behavior.
	FastFilter bool
	// FastMargin is the relative headroom the filter grants a candidate
	// before ruling it out (default DefaultFastMargin, sized from the
	// calibration harness's neighbor-config divergence).
	FastMargin float64
}

// DefaultFastMargin is the filter's default relative margin. The
// calibration harness (fastmodel.Calibrate) shows the model's error is
// strongly correlated between configurations that differ on one menu
// axis — the only comparisons the annealer's filter makes — so the
// margin covers the residual neighbor-to-neighbor misranking, not the
// full cross-palette spread. At 0.10 the filter's rejections agree with
// the detailed walk on every probed (benchmark, seed) scenario, keeping
// the filtered walk's output identical; tighter margins cut deeper but
// begin to rule out candidates the detailed engine would have accepted.
const DefaultFastMargin = 0.10

// hotTemp and coldTemp bound the annealer's geometric cooling schedule and
// the tempering ladder, in relative objective units.
const (
	hotTemp  = 0.10
	coldTemp = 0.005
)

func (o *Options) applyDefaults() {
	if o.Steps == 0 {
		o.Steps = 200
	}
	if o.Lookahead <= 0 {
		o.Lookahead = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.FastMargin <= 0 {
		o.FastMargin = DefaultFastMargin
	}
}

// Result is the outcome of an exploration.
type Result struct {
	// Best is the highest-IPT configuration found.
	Best config.CoreConfig
	// BestIPT is its measured IPT on the objective trace.
	BestIPT float64
	// Evaluated counts the design points the walk consumed (the initial
	// point plus one per processed step). It is identical for every
	// Lookahead, like the rest of the Result.
	Evaluated int
	// Wasted counts speculative evaluations that were discarded because an
	// earlier candidate in their batch was accepted. With the fast filter
	// off it is always zero for Lookahead <= 1 and the only Result field
	// that varies with Lookahead.
	Wasted int
	// Detailed counts detailed design-point simulations performed (cache
	// hits included): the initial point plus every candidate that reached
	// the detailed tier, consumed, deferred-then-consumed, or speculative.
	// This is the figure the fast filter exists to cut.
	Detailed int
	// Filtered counts candidates the fast-model filter rejected without a
	// detailed evaluation. Always zero unless Options.FastFilter.
	Filtered int
}

// state is a point in the free-parameter space.
type state struct {
	clock                  int // menu indices
	width                  int
	rob, iq, lsq           int
	l1Sets, l1Assoc, l1Blk int
	l2Sets, l2Assoc, l2Blk int
	pred                   int
	repl, pref             int
}

func (s state) params(name string) config.FreeParams {
	return config.FreeParams{
		Name:          name,
		ClockPeriodNs: clockMenu[s.clock],
		Width:         widthMenu[s.width],
		ROBSize:       robMenu[s.rob],
		IQSize:        iqMenu[s.iq],
		LSQSize:       lsqMenu[s.lsq],
		L1Sets:        setsMenu[s.l1Sets],
		L1Assoc:       assocMenu[s.l1Assoc],
		L1Block:       blockMenu[s.l1Blk],
		L2Sets:        setsMenu[s.l2Sets],
		L2Assoc:       assocMenu[s.l2Assoc],
		L2Block:       blockMenu[s.l2Blk],
		Predictor:     predMenu[s.pred],
		Replacement:   replMenu[s.repl],
		Prefetcher:    prefMenu[s.pref],
	}
}

// valid enforces structural sanity: cache sizes within the technology
// bounds and an issue queue no larger than the window.
func (s state) valid() bool {
	l1 := setsMenu[s.l1Sets] * assocMenu[s.l1Assoc] * blockMenu[s.l1Blk]
	l2 := setsMenu[s.l2Sets] * assocMenu[s.l2Assoc] * blockMenu[s.l2Blk]
	if l1 < l1SizeMin || l1 > l1SizeMax {
		return false
	}
	if l2 < l2SizeMin || l2 > l2SizeMax || l2 < 2*l1 {
		return false
	}
	return iqMenu[s.iq] <= robMenu[s.rob]
}

func defaultState() state {
	return state{
		clock: 5, width: 2, rob: 3, iq: 1, lsq: 2,
		l1Sets: 3, l1Assoc: 1, l1Blk: 3,
		l2Sets: 4, l2Assoc: 3, l2Blk: 4,
		pred: 2, // Appendix-A gshare
		repl: 2, // true LRU
		pref: 0, // no prefetcher
	}
}

// neighbor perturbs one randomly chosen axis by one menu step. The axis
// count includes the predictor menu (axis 11, added in PR 9) and the
// replacement-policy and prefetcher menus (axes 12 and 13, the SPI PR):
// walks from a pre-existing seed therefore visit different states than
// before, but every determinism property — identical trajectories across
// Lookahead and Parallelism, split proposal/acceptance streams — is
// unchanged (see DESIGN.md §15 and §16 for the trajectory-safety argument).
func neighbor(s state, r *xrand.RNG) state {
	for {
		n := s
		axis := r.Intn(14)
		dir := 1
		if r.Bool(0.5) {
			dir = -1
		}
		bump := func(v, max int) int {
			v += dir
			if v < 0 {
				v = 0
			}
			if v >= max {
				v = max - 1
			}
			return v
		}
		switch axis {
		case 0:
			n.clock = bump(n.clock, len(clockMenu))
		case 1:
			n.width = bump(n.width, len(widthMenu))
		case 2:
			n.rob = bump(n.rob, len(robMenu))
		case 3:
			n.iq = bump(n.iq, len(iqMenu))
		case 4:
			n.lsq = bump(n.lsq, len(lsqMenu))
		case 5:
			n.l1Sets = bump(n.l1Sets, len(setsMenu))
		case 6:
			n.l1Assoc = bump(n.l1Assoc, len(assocMenu))
		case 7:
			n.l1Blk = bump(n.l1Blk, len(blockMenu))
		case 8:
			n.l2Sets = bump(n.l2Sets, len(setsMenu))
		case 9:
			n.l2Assoc = bump(n.l2Assoc, len(assocMenu))
		case 10:
			n.l2Blk = bump(n.l2Blk, len(blockMenu))
		case 11:
			n.pred = bump(n.pred, len(predMenu))
		case 12:
			n.repl = bump(n.repl, len(replMenu))
		case 13:
			n.pref = bump(n.pref, len(prefMenu))
		}
		if n != s && n.valid() {
			return n
		}
	}
}

// evaluator measures design points as plain leaves of the campaign leaf
// path (experiments.Cached under experiments.RunKey), so an optional result
// cache shares its entries with the Lab.
type evaluator struct {
	tr    *trace.Trace
	name  string
	ropts sim.RunOptions
	cache *resultcache.Cache
	log   *obs.ArtifactLog
}

func newEvaluator(tr *trace.Trace, cache *resultcache.Cache, log *obs.ArtifactLog) *evaluator {
	return &evaluator{
		tr:    tr,
		name:  "explore-" + tr.Name(),
		ropts: sim.RunOptions{MaxCycles: int64(tr.Len()) * 200},
		cache: cache,
		log:   log,
	}
}

func (e *evaluator) eval(ctx context.Context, s state) (config.CoreConfig, float64, error) {
	cfg, err := config.Derive(s.params(e.name))
	if err != nil {
		return config.CoreConfig{}, 0, err
	}
	res, err := experiments.Cached(e.cache, experiments.RunKey(e.tr, cfg, e.ropts), false, nil, func() (r sim.Result, err error) {
		e.log.Time("eval", e.name, func() { r, err = sim.RunContext(ctx, cfg, e.tr, e.ropts) })
		return r, err
	})
	if err != nil {
		return config.CoreConfig{}, 0, err
	}
	return cfg, res.IPT(), nil
}

// fastIPTOf appraises the state with the fast model, reporting false when
// the state cannot be derived or estimated (the detailed tier then decides
// its fate, exactly as it would without a filter).
func fastIPTOf(fm *fastmodel.Model, name string, s state) (float64, bool) {
	cfg, err := config.Derive(s.params(name))
	if err != nil {
		return 0, false
	}
	est, err := fm.Estimate(cfg)
	if err != nil {
		return 0, false
	}
	return est.IPT, true
}

// forEach runs fn(i) for i in [0, n) on at most par concurrent goroutines.
func forEach(par, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// Customize anneals a core configuration that maximizes IPT on the trace.
//
// The walk consumes two RNG streams split from the seed: proposals
// (neighbor draws) and acceptance tests. Per step, a candidate neighbor of
// the current state is proposed; an improving candidate is always
// accepted, a worsening one with the Metropolis probability at the current
// temperature; the temperature cools geometrically each step; an
// underivable or non-terminating candidate is rejected without consuming
// an acceptance draw. With Lookahead K > 1 the next K proposals are drawn
// speculatively (each assuming the prior ones are rejected) and evaluated
// concurrently; decisions are still applied in sequence order, and an
// acceptance discards the rest of the batch and rewinds the proposal
// stream, so the trajectory is exactly the K=1 trajectory.
func Customize(ctx context.Context, tr *trace.Trace, opts Options) (Result, error) {
	if tr == nil || tr.Len() == 0 {
		return Result{}, fmt.Errorf("explore: empty trace")
	}
	opts.applyDefaults()
	base := xrand.New(opts.Seed)
	rProp := base.Split()
	rAcc := base.Split()
	ev := newEvaluator(tr, opts.Cache, opts.Log)

	cur := defaultState()
	if !cur.valid() {
		return Result{}, fmt.Errorf("explore: invalid initial state")
	}
	curCfg, curIPT, err := ev.eval(ctx, cur)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: curCfg, BestIPT: curIPT, Evaluated: 1, Detailed: 1}

	var fm *fastmodel.Model
	var curFast float64
	if opts.FastFilter {
		fm = fastmodel.New(tr)
		if f, ok := fastIPTOf(fm, ev.name, cur); ok {
			curFast = f
		}
	}

	// Divide at run time: as a constant expression coldTemp/hotTemp folds
	// to exactly 0.05, not the float64 quotient 0.049999999999999996.
	temp, end := float64(hotTemp), float64(coldTemp)
	cool := math.Pow(end/temp, 1/math.Max(1, float64(opts.Steps-1)))

	type candidate struct {
		st       state
		rngAfter xrand.RNG // proposal-stream state after drawing st
		cfg      config.CoreConfig
		ipt      float64
		fast     float64
		filtered bool // fast model ruled it out; no detailed run
		deferred bool // speculation gated; evaluated on demand if reached
		err      error
	}
	for step := 0; step < opts.Steps; {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		k := opts.Lookahead
		if rem := opts.Steps - step; k > rem {
			k = rem
		}
		// Draw the window's proposals on a scratch copy of the proposal
		// stream: candidate j is what a sequential annealer would propose
		// at step+j if candidates 0..j-1 were all rejected.
		cands := make([]candidate, k)
		scratch := *rProp
		for j := range cands {
			cands[j].st = neighbor(cur, &scratch)
			cands[j].rngAfter = scratch
		}
		// Fast-model first pass. A candidate whose fast estimate sits
		// below the incumbent's by more than the margin plus the current
		// Metropolis acceptance range is rejected without a detailed
		// simulation (the temperature term tracks the cooling within the
		// window, matching the temperature each candidate would face).
		// And once some earlier surviving candidate is fast-predicted
		// accepted, the rest of the window's speculation is deferred: an
		// acceptance there discards the later candidates anyway, so
		// evaluating them up front is the waste the lookahead trades for
		// parallelism — a deferred candidate the walk does reach is
		// evaluated on demand in the consume loop, at the same point in
		// the decision sequence, so deferral never changes the trajectory.
		if fm != nil {
			tj := temp
			gate := false
			for j := range cands {
				c := &cands[j]
				if f, ok := fastIPTOf(fm, ev.name, c.st); ok {
					c.fast = f
					if curFast > 0 {
						switch {
						case f < curFast*(1-(opts.FastMargin+tj)):
							c.filtered = true
						case gate:
							c.deferred = true
						}
						if !c.filtered && f >= curFast {
							gate = true
						}
					}
				} else if gate {
					c.deferred = true
				}
				tj *= cool
			}
		}
		for j := range cands {
			if !cands[j].filtered && !cands[j].deferred {
				res.Detailed++
			}
		}
		forEach(opts.Parallelism, k, func(j int) {
			c := &cands[j]
			if c.filtered || c.deferred {
				return
			}
			c.cfg, c.ipt, c.err = ev.eval(ctx, c.st)
		})
		// Consume in sequence order; stop the window at the first
		// acceptance (later candidates were proposed from a state the walk
		// no longer occupies).
		consumed := 0
		for j := 0; j < k; j++ {
			c := &cands[j]
			consumed++
			accepted := false
			if c.filtered {
				// The detailed walk would have computed a deeply negative
				// rel here and spent one acceptance draw on a near-certain
				// rejection; consume the same draw so the surviving
				// trajectory stays stream-aligned with the unfiltered walk.
				rAcc.Float64()
				res.Filtered++
			} else {
				if c.deferred {
					res.Detailed++
					c.cfg, c.ipt, c.err = ev.eval(ctx, c.st)
				}
				if c.err == nil {
					res.Evaluated++
					rel := (c.ipt - curIPT) / curIPT
					accepted = rel >= 0 || rAcc.Bool(math.Exp(rel/temp))
				}
			}
			temp *= cool
			step++
			if accepted {
				cur, curIPT = c.st, c.ipt
				if fm != nil {
					curFast = c.fast
				}
				if opts.Progress != nil {
					opts.Progress(step-1, c.cfg, c.ipt)
				}
				if c.ipt > res.BestIPT {
					res.Best, res.BestIPT = c.cfg, c.ipt
				}
				break
			}
		}
		*rProp = cands[consumed-1].rngAfter
		for j := consumed; j < k; j++ {
			c := &cands[j]
			if !c.filtered && !c.deferred {
				res.Wasted++
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res.Best.Name = "custom-" + tr.Name()
	return res, nil
}
