package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"archcontest"
	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/isa"
	"archcontest/internal/pipeline"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
)

// Layer probes. A traced run of every workload ends by timing each engine
// layer on its own, through the layer's public constructor, on the seeded
// gcc trace: trace generation, each branch predictor replaying the trace's
// branch stream, each cache configuration replaying its memory stream, the
// pipeline driven by NewCore and Advance, and 2- and 4-core contests. Each
// timing is the median of p.probeRepeats repeats, in calibrated
// nanoseconds; the ratios and counts beside them are deterministic and
// repeat exactly. Which end-to-end metric each should move:
//
//	workload.gen_ns_per_inst     setup_s (engine, components), op_ms (campaign)
//	branch.*, cache.*, pipeline.* single_mips (engine: gshare, lru; components: the rest)
//	contest.*                    contest_mips (engine, components)
//	invariant.verify_overhead    op_ms (serve, through its verified jobs)
//	runtime.allocs_per_kinst     single_mips (engine), heap_live_mb (serve)

// probeTime times fn p.probeRepeats times and returns the median in
// calibrated seconds, calibrated with factor.
func (b *bench) probeTime(factor float64, fn func() error) (float64, error) {
	walls := make([]float64, 0, b.p.probeRepeats)
	for i := 0; i < b.p.probeRepeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return median(walls) * factor, nil
}

type branchEvent struct {
	pc    uint64
	taken bool
}

type memEvent struct {
	addr  uint64
	store bool
}

// streams extracts the trace's branch and memory streams.
func streams(tr *trace.Trace) ([]branchEvent, []memEvent) {
	var br []branchEvent
	var mem []memEvent
	for i := 0; i < tr.Len(); i++ {
		in := tr.At(int64(i))
		switch in.Op {
		case isa.OpBranch:
			br = append(br, branchEvent{in.PC, in.Taken})
		case isa.OpLoad, isa.OpStore:
			mem = append(mem, memEvent{in.Addr, in.Op == isa.OpStore})
		}
	}
	return br, mem
}

// replayBranches drives a fresh predictor through the branch stream and
// returns its mispredictions.
func replayBranches(cfg branch.Config, br []branchEvent) (int, error) {
	p, err := cfg.New()
	if err != nil {
		return 0, err
	}
	miss := 0
	for _, e := range br {
		if p.Predict(e.pc) != e.taken {
			miss++
		}
		p.Update(e.pc, e.taken)
	}
	return miss, nil
}

// replayMemory drives a fresh hierarchy through the memory stream, one
// access per cycle, and returns it for its counters.
func replayMemory(core config.CoreConfig, mem []memEvent) (*cache.Hierarchy, error) {
	h, err := cache.NewHierarchy(core.L1D, core.L2D, core.MemLatencyCycles, cache.WriteBack)
	if err != nil {
		return nil, err
	}
	if err := h.AttachPrefetcher(core.Prefetch); err != nil {
		return nil, err
	}
	for i, e := range mem {
		if e.store {
			h.Store(e.addr, int64(i))
		} else {
			h.Load(e.addr, int64(i))
		}
	}
	return h, nil
}

func (b *bench) probeLayers(ctx context.Context) error {
	m := b.layer
	// Two back-to-back kernel samples calibrate every probe.
	f := calibrationFactor((b.cal.sample() + b.cal.sample()) / 2)
	var tr *trace.Trace
	gen, err := b.probeTime(f, func() error {
		var err error
		tr, err = seededTrace("gcc", b.p.probeN, b.seed)
		return err
	})
	if err != nil {
		return err
	}
	insts := float64(tr.Len())
	m["workload.gen_ns_per_inst"] = gen * 1e9 / insts
	br, mem := streams(tr)

	for _, kind := range []string{"gshare", "tage", "bimodal"} {
		cfg := branch.RepresentativeConfig(kind)
		var miss int
		t, err := b.probeTime(f, func() error {
			var err error
			miss, err = replayBranches(cfg, br)
			return err
		})
		if err != nil {
			return fmt.Errorf("branch %s: %w", kind, err)
		}
		m["branch."+kind+".ns_per_branch"] = t * 1e9 / float64(len(br))
		m["branch."+kind+".mispredict_ratio"] = float64(miss) / float64(len(br))
	}

	gcc, err := config.PaletteCore("gcc")
	if err != nil {
		return err
	}
	for _, v := range []struct{ name, repl, pf string }{
		{"lru", "", ""}, {"srrip", "srrip", ""}, {"random", "random", ""},
		{"stride", "", "stride"}, {"nextline", "", "nextline"},
	} {
		core := gcc
		core.L1D.Replacement, core.L2D.Replacement = v.repl, v.repl
		core.Prefetch = cache.PrefetchConfig{Name: v.pf}
		var h *cache.Hierarchy
		t, err := b.probeTime(f, func() error {
			var err error
			h, err = replayMemory(core, mem)
			return err
		})
		if err != nil {
			return fmt.Errorf("cache %s: %w", v.name, err)
		}
		m["cache."+v.name+".ns_per_access"] = t * 1e9 / float64(len(mem))
		switch v.name {
		case "lru":
			m["cache.l1_miss_ratio"] = h.L1.Stats.MissRate()
			m["cache.l2_miss_ratio"] = h.L2.Stats.MissRate()
		case "stride", "nextline":
			m["cache."+v.name+".prefetches_per_kinst"] = float64(h.Prefetches) / (insts / 1e3)
		}
	}

	var advances, cycles int64
	pipe, err := b.probeTime(f, func() error {
		core, err := pipeline.NewCore(gcc, tr, pipeline.Options{})
		if err != nil {
			return err
		}
		advances = 0
		for !core.Done() {
			core.Advance()
			advances++
		}
		cycles = core.Cycle()
		return nil
	})
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	m["pipeline.ns_per_inst"] = pipe * 1e9 / insts
	m["pipeline.cycles_per_advance"] = float64(cycles) / float64(advances)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.RunContext(ctx, gcc, tr, sim.RunOptions{}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m["runtime.allocs_per_kinst"] = float64(after.Mallocs-before.Mallocs) / (insts / 1e3)

	if err := b.probeContests(ctx, tr, f); err != nil {
		return err
	}

	pre := tr.Prefix(b.p.verifyN)
	plain, err := b.probeTime(f, func() error {
		_, err := sim.RunContext(ctx, gcc, pre, sim.RunOptions{})
		return err
	})
	if err != nil {
		return err
	}
	verified, err := b.probeTime(f, func() error {
		_, err := archcontest.RunVerified(gcc, pre)
		return err
	})
	if err != nil {
		return fmt.Errorf("verified probe: %w", err)
	}
	m["invariant.verify_overhead"] = verified / plain
	return nil
}

// probeContests times 2- and 4-core contests on the probe trace and the
// coupling overhead: contest time over the summed single-core times of
// the same cores on the same trace.
func (b *bench) probeContests(ctx context.Context, tr *trace.Trace, f float64) error {
	m := b.layer
	insts := float64(tr.Len())
	for _, names := range [][]string{{"gcc", "mcf"}, {"gcc", "mcf", "bzip", "crafty"}} {
		cores := make([]config.CoreConfig, len(names))
		for i, n := range names {
			var err error
			if cores[i], err = config.PaletteCore(n); err != nil {
				return err
			}
		}
		var res contest.Result
		t, err := b.probeTime(f, func() error {
			var err error
			res, err = contest.RunContext(ctx, cores, tr, contest.Options{})
			return err
		})
		if err != nil {
			return fmt.Errorf("contest probe: %w", err)
		}
		singles := 0.0
		for _, c := range cores {
			s, err := b.probeTime(f, func() error {
				_, err := sim.RunContext(ctx, c, tr, sim.RunOptions{})
				return err
			})
			if err != nil {
				return err
			}
			singles += s
		}
		m[fmt.Sprintf("contest.ns_per_inst.%dcore", len(cores))] = t * 1e9 / insts
		if len(cores) == 2 {
			m["contest.coupling_overhead"] = t / singles
			var injected int64
			for _, st := range res.PerCore {
				injected += st.Injected
			}
			m["contest.lead_changes_per_kinst"] = float64(res.LeadChanges) / (insts / 1e3)
			m["contest.injected_per_kinst"] = float64(injected) / (insts / 1e3)
		}
	}
	return nil
}
