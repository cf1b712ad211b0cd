// Package fastmodel is the filter tier of the exploration stack: a
// trace-driven, IPC-approximate core model that estimates a
// configuration's performance in one linear pass over the trace, with no
// per-slot window simulation. It follows the interval-analysis shape:
// the replayed inputs are exact — branch outcomes through the real
// predictor, memory accesses through the real cache tag arrays — and
// only their combination into cycles is approximate: execution time is
// the maximum of a dependence bound (the dataflow critical path with
// per-access cache latencies, which serializes dependent miss chains)
// and a throughput bound (dispatch width plus misprediction-refill and
// MLP-clustered miss intervals).
//
// The model is deliberately coarse — it exists to rank design points,
// not to time them. The Calibrate harness measures its divergence from
// the detailed engine over the workload suite, and the explore filter
// uses that error bound as a margin: only candidates the fast model
// cannot rule out are simulated in detail.
package fastmodel

import (
	"sync"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/isa"
	"archcontest/internal/trace"
)

// Estimate is the fast model's appraisal of one configuration.
type Estimate struct {
	// Cycles is the estimated execution time in core cycles.
	Cycles float64 `json:"cycles"`
	// IPT is the estimated instructions per nanosecond, comparable to
	// sim.Result.IPT.
	IPT float64 `json:"ipt"`
	// Mispredicts is the replayed predictor's mispredicted branch count.
	Mispredicts int64 `json:"mispredicts"`
	// L1Misses and L2Misses are the replayed tag-array miss counts.
	L1Misses int64 `json:"l1_misses"`
	L2Misses int64 `json:"l2_misses"`
}

// Model evaluates configurations against one trace. The trace-dependent
// replays — the predictor and the per-geometry cache tag arrays — are
// computed once and memoized, so estimating a design point that reuses a
// seen cache geometry costs one latency-weighting pass over the trace
// instead of a detailed simulation. A Model is safe for concurrent use.
type Model struct {
	tr *trace.Trace

	mu    sync.Mutex
	preds map[predKey]*predReplay
	geoms map[geomKey]*memReplay
}

// New builds a fast model over the trace.
func New(tr *trace.Trace) *Model {
	return &Model{
		tr:    tr,
		preds: make(map[predKey]*predReplay),
		geoms: make(map[geomKey]*memReplay),
	}
}

// predKey is the full predictor configuration: branch.Config is a
// comparable struct, so keying the memo by value keeps the replay exact for
// every kind — gshare, bimodal, TAGE, and registered families (whose
// opaque Params string is part of the value) alike.
type predKey = branch.Config

// geomKey is the full memory-side component configuration: both cache
// levels (with the latency fields zeroed — they do not change which
// accesses miss) plus the prefetcher, whose fills do. Keying on the whole
// structs keeps the memo exact across replacement policies and opaque
// parameter strings without enumerating fields.
type geomKey struct {
	l1, l2 cache.Config
	pf     cache.PrefetchConfig
}

type predReplay struct {
	once        sync.Once
	err         error
	mispredicts int64
}

// Miss levels of a memory access under one cache geometry.
const (
	levelL1Hit = iota
	levelL2Hit
	levelMem
)

type memReplay struct {
	once     sync.Once
	err      error
	l1Misses int64
	l2Misses int64
	// level classifies every trace index (non-memory entries stay
	// levelL1Hit, which adds nothing beyond the L1 latency never charged
	// to them).
	level []uint8
	// l1MissIdx and l2MissIdx hold the trace indices of misses, for MLP
	// clustering against the reorder window.
	l1MissIdx []int32
	l2MissIdx []int32
}

// predFor replays the predictor configuration over the trace's branches,
// memoized by predictor geometry.
func (m *Model) predFor(cfg config.CoreConfig) (*predReplay, error) {
	key := predKey(cfg.Predictor)
	m.mu.Lock()
	pr, ok := m.preds[key]
	if !ok {
		pr = &predReplay{}
		m.preds[key] = pr
	}
	m.mu.Unlock()
	pr.once.Do(func() {
		pred, err := cfg.Predictor.New()
		if err != nil {
			pr.err = err
			return
		}
		r := m.tr.Reader(0)
		var in isa.Inst
		for r.Next(&in) {
			if in.Op != isa.OpBranch {
				continue
			}
			if pred.Predict(in.PC) != in.Taken {
				pr.mispredicts++
			}
			pred.Update(in.PC, in.Taken)
		}
	})
	if pr.err != nil {
		return nil, pr.err
	}
	return pr, nil
}

// memFor replays the memory accesses through tag-only L1/L2 arrays,
// memoized by the full memory-side component configuration (latencies
// excluded — they do not change which accesses miss). The configured
// replacement policies drive victim choice, and the configured prefetcher
// prefills both levels the way Hierarchy.Load does. Stores differ: the
// replay touches L2 only on an L1 store miss, but the write-through
// Hierarchy.Store writes L2 on every store, so L2 victims can differ.
func (m *Model) memFor(cfg config.CoreConfig) (*memReplay, error) {
	l1Cfg, l2Cfg := cfg.L1D, cfg.L2D
	l1Cfg.LatencyCycles, l2Cfg.LatencyCycles = 0, 0
	key := geomKey{l1: l1Cfg, l2: l2Cfg, pf: cfg.Prefetch}
	m.mu.Lock()
	mr, ok := m.geoms[key]
	if !ok {
		mr = &memReplay{}
		m.geoms[key] = mr
	}
	m.mu.Unlock()
	mr.once.Do(func() {
		l1, err := cache.New(cfg.L1D)
		if err != nil {
			mr.err = err
			return
		}
		l2, err := cache.New(cfg.L2D)
		if err != nil {
			mr.err = err
			return
		}
		pf, err := cache.NewPrefetcher(cfg.Prefetch, cfg.L1D.BlockBytes)
		if err != nil {
			mr.err = err
			return
		}
		var pfBuf [8]uint64
		prefetch := func(addr uint64, miss bool) {
			for _, pa := range pf.OnAccess(addr, miss, pfBuf[:0]) {
				if l1.Probe(pa) {
					continue
				}
				if !l2.Probe(pa) {
					l2.Prefill(pa)
				}
				l1.Prefill(pa)
			}
		}
		mr.level = make([]uint8, m.tr.Len())
		r := m.tr.Reader(0)
		var in isa.Inst
		for i := int64(0); r.Next(&in); i++ {
			if !in.IsMem() {
				continue
			}
			write := in.Op == isa.OpStore
			if hit, _ := l1.Access(in.Addr, write); hit {
				if pf != nil && !write {
					prefetch(in.Addr, false)
				}
				continue
			}
			mr.l1Misses++
			mr.l1MissIdx = append(mr.l1MissIdx, int32(i))
			if hit, _ := l2.Access(in.Addr, write); hit {
				mr.level[i] = levelL2Hit
			} else {
				mr.level[i] = levelMem
				mr.l2Misses++
				mr.l2MissIdx = append(mr.l2MissIdx, int32(i))
			}
			if pf != nil && !write {
				prefetch(in.Addr, true)
			}
		}
	})
	if mr.err != nil {
		return nil, mr.err
	}
	return mr, nil
}

// clusters counts miss clusters under a reorder window of w instructions:
// a miss within w instructions of its cluster's leader overlaps the
// leader's latency (memory-level parallelism) and is not charged.
func clusters(idx []int32, w int64) int64 {
	if w < 1 {
		w = 1
	}
	var count int64
	leader := int64(-1) - w
	for _, i := range idx {
		if int64(i)-leader >= w {
			count++
			leader = int64(i)
		}
	}
	return count
}

// Estimate appraises the configuration on the model's trace:
//
//	dependence bound: dataflow critical path with each load charged its
//	    replayed level's latency — dependent miss chains serialize here;
//	throughput bound: N/Width dispatch slots, plus a front-end refill
//	    interval per mispredict, plus one full latency per miss cluster
//	    (misses within a reorder window of the cluster leader overlap);
//	cycles = max(dependence, throughput).
func (m *Model) Estimate(cfg config.CoreConfig) (Estimate, error) {
	pr, err := m.predFor(cfg)
	if err != nil {
		return Estimate{}, err
	}
	mr, err := m.memFor(cfg)
	if err != nil {
		return Estimate{}, err
	}
	n := int64(m.tr.Len())

	l1Lat := int64(cfg.L1D.LatencyCycles)
	l2Lat := l1Lat + int64(cfg.L2D.LatencyCycles)
	memLat := l2Lat + int64(cfg.MemLatencyCycles)

	// Dependence bound: dataflow height over the architectural registers.
	var depth [isa.NumRegs]int64
	var height int64
	level := mr.level
	r := m.tr.Reader(0)
	var in isa.Inst
	for i := 0; r.Next(&in); i++ {
		d := depth[in.Src1]
		if d2 := depth[in.Src2]; d2 > d {
			d = d2
		}
		lat := int64(in.Op.Latency())
		if in.Op == isa.OpLoad {
			switch level[i] {
			case levelL2Hit:
				lat += l2Lat
			case levelMem:
				lat += memLat
			default:
				lat += l1Lat
			}
		}
		d += lat
		if in.Dst != isa.NoReg {
			depth[in.Dst] = d
		}
		if d > height {
			height = d
		}
	}

	refill := int64(cfg.FrontEndDepth + cfg.SchedDepth + 1)
	base := n / int64(cfg.Width)
	if height > base {
		base = height
	}
	cycles := float64(base +
		pr.mispredicts*refill +
		clusters(mr.l2MissIdx, int64(cfg.ROBSize))*int64(cfg.MemLatencyCycles) +
		clusters(mr.l1MissIdx, int64(cfg.IQSize))*int64(cfg.L2D.LatencyCycles))
	est := Estimate{
		Cycles:      cycles,
		Mispredicts: pr.mispredicts,
		L1Misses:    mr.l1Misses,
		L2Misses:    mr.l2Misses,
	}
	if ns := cycles * cfg.ClockPeriodNs; ns > 0 {
		est.IPT = float64(n) / ns
	}
	return est, nil
}
