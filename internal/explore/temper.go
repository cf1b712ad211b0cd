package explore

import (
	"context"
	"fmt"
	"math"

	"archcontest/internal/config"
	"archcontest/internal/fastmodel"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/trace"
	"archcontest/internal/xrand"
)

// TemperingOptions configures a parallel-tempering (replica-exchange)
// exploration: M chains walk the design space concurrently at fixed
// temperatures on a geometric ladder, and every ExchangeEvery rounds
// adjacent chains probabilistically swap states, so cold chains exploit
// while hot chains explore and good basins percolate down the ladder.
type TemperingOptions struct {
	// Seed drives every chain and the exchange decisions deterministically.
	Seed uint64
	// Chains is the ladder size M (default 4).
	Chains int
	// Steps is the number of rounds; each round evaluates one candidate
	// per chain (default 200).
	Steps int
	// ExchangeEvery is the round interval between replica-exchange sweeps
	// (default 10). The chains' temperatures form a geometric ladder from
	// coldTemp (chain 0) to hotTemp.
	ExchangeEvery int
	// Parallelism bounds concurrent candidate evaluations (default NumCPU).
	Parallelism int
	// Cache, if non-nil, memoizes design-point evaluations.
	Cache *resultcache.Cache
	// Log, if non-nil, receives a timed span per executed design-point
	// simulation (cache hits record nothing), for the campaign timeline.
	Log *obs.ArtifactLog
	// Progress, if non-nil, observes every accepted move on any chain.
	Progress func(chain, step int, cfg config.CoreConfig, ipt float64)
	// FastFilter and FastMargin enable the fast-model first pass, exactly
	// as in Options: a chain's candidate is rejected without a detailed
	// simulation when its fast estimate sits below the chain incumbent's
	// by more than the margin plus the chain temperature's acceptance
	// range, and the filter consumes the acceptance draw the detailed
	// walk would have spent on the near-certain rejection, keeping the
	// chain stream-aligned with the unfiltered run. Off, the run is
	// bit-identical to prior behavior.
	FastFilter bool
	FastMargin float64
}

func (o *TemperingOptions) applyDefaults() {
	if o.Chains <= 0 {
		o.Chains = 4
	}
	if o.Steps == 0 {
		o.Steps = 200
	}
	if o.ExchangeEvery <= 0 {
		o.ExchangeEvery = 10
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 0 // resolved by forEach callers below
	}
	if o.FastMargin <= 0 {
		o.FastMargin = DefaultFastMargin
	}
}

// Temper runs the replica-exchange exploration. Rounds are barriers:
// every chain's candidate is evaluated before any decision is applied, so
// the outcome is a pure function of (seed, trace, options) regardless of
// Parallelism. Result.Evaluated counts all chain evaluations; Wasted is
// always zero (tempering discards nothing).
func Temper(ctx context.Context, tr *trace.Trace, opts TemperingOptions) (Result, error) {
	if tr == nil || tr.Len() == 0 {
		return Result{}, fmt.Errorf("explore: empty trace")
	}
	opts.applyDefaults()
	m := opts.Chains

	base := xrand.New(opts.Seed)
	rExch := base.Split()
	props := make([]*xrand.RNG, m)
	accs := make([]*xrand.RNG, m)
	for i := 0; i < m; i++ {
		props[i] = base.Split()
		accs[i] = base.Split()
	}

	// Geometric ladder, chain 0 coldest.
	temps := make([]float64, m)
	for i := range temps {
		if m == 1 {
			temps[i] = coldTemp
			continue
		}
		temps[i] = coldTemp * math.Pow(hotTemp/coldTemp, float64(i)/float64(m-1))
	}

	ev := newEvaluator(tr, opts.Cache, opts.Log)
	start := defaultState()
	if !start.valid() {
		return Result{}, fmt.Errorf("explore: invalid initial state")
	}
	startCfg, startIPT, err := ev.eval(ctx, start)
	if err != nil {
		return Result{}, err
	}

	curs := make([]state, m)
	ipts := make([]float64, m)
	for i := range curs {
		curs[i], ipts[i] = start, startIPT
	}
	res := Result{Best: startCfg, BestIPT: startIPT, Evaluated: 1, Detailed: 1}

	var fm *fastmodel.Model
	fasts := make([]float64, m)
	if opts.FastFilter {
		fm = fastmodel.New(tr)
		if f, ok := fastIPTOf(fm, ev.name, start); ok {
			for i := range fasts {
				fasts[i] = f
			}
		}
	}
	// scale normalizes objective differences in the exchange criterion so
	// the ladder units match the annealer's relative-temperature units.
	scale := startIPT

	type candidate struct {
		st       state
		cfg      config.CoreConfig
		ipt      float64
		fast     float64
		filtered bool
		err      error
	}
	par := opts.Parallelism
	for round := 0; round < opts.Steps; round++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		cands := make([]candidate, m)
		for i := range cands {
			cands[i].st = neighbor(curs[i], props[i])
		}
		if fm != nil {
			for i := range cands {
				c := &cands[i]
				if f, ok := fastIPTOf(fm, ev.name, c.st); ok {
					c.fast = f
					if fasts[i] > 0 && f < fasts[i]*(1-(opts.FastMargin+temps[i])) {
						c.filtered = true
					}
				}
			}
		}
		for i := range cands {
			if !cands[i].filtered {
				res.Detailed++
			}
		}
		forEach(par, m, func(i int) {
			c := &cands[i]
			if c.filtered {
				return
			}
			c.cfg, c.ipt, c.err = ev.eval(ctx, c.st)
		})
		for i := 0; i < m; i++ {
			c := &cands[i]
			if c.filtered {
				// Consume the draw the unfiltered chain would have spent
				// rejecting this candidate, to stay stream-aligned.
				accs[i].Float64()
				res.Filtered++
				continue
			}
			if c.err != nil {
				continue
			}
			res.Evaluated++
			rel := (c.ipt - ipts[i]) / ipts[i]
			if rel >= 0 || accs[i].Bool(math.Exp(rel/temps[i])) {
				curs[i], ipts[i] = c.st, c.ipt
				if fm != nil {
					fasts[i] = c.fast
				}
				if opts.Progress != nil {
					opts.Progress(i, round, c.cfg, c.ipt)
				}
				if c.ipt > res.BestIPT {
					res.Best, res.BestIPT = c.cfg, c.ipt
				}
			}
		}
		if (round+1)%opts.ExchangeEvery == 0 {
			for i := 0; i+1 < m; i++ {
				// Metropolis replica exchange: p = exp((βi−βj)(Ei−Ej))
				// with E = −IPT/scale, β = 1/T. A cold chain stuck above
				// a hot chain's objective swaps with certainty.
				bi, bj := 1/temps[i], 1/temps[i+1]
				ei, ej := -ipts[i]/scale, -ipts[i+1]/scale
				p := math.Exp((bi - bj) * (ei - ej))
				if p >= 1 || rExch.Bool(p) {
					curs[i], curs[i+1] = curs[i+1], curs[i]
					ipts[i], ipts[i+1] = ipts[i+1], ipts[i]
					fasts[i], fasts[i+1] = fasts[i+1], fasts[i]
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res.Best.Name = "custom-" + tr.Name()
	return res, nil
}
