// Package fuzz decodes raw fuzzer bytes into simulator inputs — workload
// seeds, core-configuration mutations, and contest options — and hosts the
// native Go fuzz targets and metamorphic properties of the verification
// subsystem (fuzz_test.go, metamorphic_test.go).
//
// The decoder is total and deterministic: every byte string, including the
// empty one, decodes to a valid (trace, configs, options) triple, and equal
// bytes decode to equal inputs. Validity is structural — decoded
// configurations satisfy config.Validate, decoded profiles satisfy
// workload.Validate — so a fuzz finding is always an engine bug, never an
// input-construction artifact. Run the targets with, e.g.:
//
//	go test -fuzz=FuzzContest -fuzztime=30s -run '^$' ./fuzz/
//
// Every target f.Adds the seed corpus (SeedCorpus), which covers the
// interesting regimes by construction: exception rendezvous, saturated
// laggers, and store-queue backpressure. SeedCorpus is the corpus's only
// copy; no target keeps one under testdata/.
package fuzz

import (
	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/isa"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// cursor reads a fuzz byte string as a sequence of small fields, yielding
// zero once exhausted so every prefix decodes.
type cursor struct {
	data []byte
	i    int
}

func (c *cursor) byte() byte {
	if c.i < len(c.data) {
		b := c.data[c.i]
		c.i++
		return b
	}
	return 0
}

func (c *cursor) u16() uint16 {
	return uint16(c.byte()) | uint16(c.byte())<<8
}

func (c *cursor) u64() uint64 {
	return uint64(c.u16()) | uint64(c.u16())<<16 | uint64(c.u16())<<32 | uint64(c.u16())<<48
}

func (c *cursor) take(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = c.byte()
	}
	return out
}

// workloadBytes is how many cursor bytes decodeTrace consumes.
const workloadBytes = 3 + 22

// maxFuzzInsts bounds decoded trace lengths: long enough to reach steady
// state, dispatch pressure, and several exception rendezvous; short enough
// for thousands of executions per minute.
const maxFuzzInsts = 2048

// decodeTrace picks a benchmark, mutates its profile within validity, and
// generates a prefix-truncated trace of 64..maxFuzzInsts instructions.
func decodeTrace(c *cursor) *trace.Trace {
	benches := workload.Benchmarks()
	base, err := workload.ProfileFor(benches[int(c.byte())%len(benches)])
	if err != nil {
		panic(err) // registry benchmarks always resolve
	}
	n := 64 + int(c.u16())%(maxFuzzInsts-64+1)
	p := workload.MutateForFuzz(base, c.take(22))
	tr, err := workload.Generate(p, maxFuzzInsts)
	if err != nil {
		panic(err) // MutateForFuzz promises validity
	}
	return tr.Prefix(n)
}

// configBytes is how many cursor bytes decodeConfig consumes.
const configBytes = 15

// clockLadder is the palette's clock-period range.
var clockLadder = []float64{0.25, 0.33, 0.5, 0.66, 1.0}

// decodeConfig derives a valid core configuration: a palette base (keeping
// its cache geometry) with the scheduling and window parameters replaced by
// decoded values inside config.Validate's ranges, the predictor either kept
// (zero byte) or replaced by a decoded bimodal/gshare/TAGE geometry, and the
// cache components — per-level replacement policy and hierarchy prefetcher —
// picked from the registered ladders, so the fuzzer drives every component
// kind through both engine paths.
func decodeConfig(c *cursor, tag byte) config.CoreConfig {
	palette := config.Palette()
	cfg := palette[int(c.byte())%len(palette)]
	cfg.Name = cfg.Name + "~fuzz" + string('a'+rune(tag%26))

	cfg.Width = 1 + int(c.byte())%8
	cfg.ROBSize = 16 << (int(c.byte()) % 6) // 16..512, always >= Width
	cfg.IQSize = cfg.ROBSize >> (int(c.byte()) % 4)
	if cfg.IQSize < 1 {
		cfg.IQSize = 1
	}
	cfg.LSQSize = 8 << (int(c.byte()) % 6)
	cfg.WakeupLatency = int(c.byte()) % 3
	cfg.SchedDepth = 1 + int(c.byte())%4
	cfg.FrontEndDepth = 4 + int(c.byte())%12
	cfg.MemLatencyCycles = 50 + 4*int(c.byte()) // 50..1070
	cfg.ClockPeriodNs = clockLadder[int(c.byte())%len(clockLadder)]

	// branch.Config leg: every geometry below satisfies Config.New by
	// construction, so a predictor panic or divergence is an engine bug.
	kind, ga, gb := c.byte(), c.byte(), c.byte()
	switch kind % 4 {
	case 0:
		// Keep the palette's gshare.
	case 1:
		cfg.Predictor = branch.Config{Kind: "bimodal", LogSize: 6 + int(ga)%8}
	case 2:
		cfg.Predictor = branch.Config{Kind: "gshare", LogSize: 8 + int(ga)%8, HistoryBits: int(gb) % 9}
	case 3:
		cfg.Predictor = branch.Config{
			Kind: "tage", LogSize: 6 + int(ga)%6,
			TageTables: 2 + int(ga)%5, TageLogSize: 6 + int(gb)%4,
			TageTagBits: 6 + int(gb)%8, TageMinHist: 2, TageMaxHist: 32,
		}
	}

	// Cache-component bytes: per-level replacement policies and the
	// hierarchy prefetcher, each from an always-valid registered ladder
	// (geometry is the palette's and stays valid by construction). Zero
	// bytes keep the fused-LRU, no-prefetch defaults, so pre-SPI corpus
	// entries decode to the same engine paths as before.
	rb, pb := c.byte(), c.byte()
	cfg.L1D.Replacement = replLadder[int(rb)%len(replLadder)]
	cfg.L2D.Replacement = replLadder[int(rb>>2)%len(replLadder)]
	cfg.Prefetch = cache.PrefetchConfig{Name: prefLadder[int(pb)%len(prefLadder)]}
	return cfg
}

// Component ladders: rung 0 is the default (fused LRU, no prefetcher), so a
// zero byte decodes to the pre-SPI configuration.
var (
	replLadder = []string{"", "srrip", "random"}
	prefLadder = []string{"", "nextline", "stride"}
)

// Option ladders: each includes the engine defaults and the stress regimes
// the seed corpus pins (tiny lag bound -> saturation, tiny store queue ->
// backpressure, non-zero exception period -> rendezvous).
var (
	latencyLadder = []float64{1, 0.5, 2, 5, 10}
	maxLagLadder  = []int{4096, 16, 64, 256, 1024}
	sqCapLadder   = []int{256, 4, 8, 32, 1024}
	excLadder     = []int64{0, 257, 512, 768}
	warmupLadder  = []float64{0, 250, 1000, 5000}
	leadLadder    = []float64{0, 50, 500}
)

// optionBytes is how many cursor bytes decodeOptions consumes.
const optionBytes = 6

// decodeOptions derives contest options. MaxTimeNs is pinned generously
// above the slowest decodable run, so a budget abort in a fuzz execution is
// itself a finding (a deadlock or livelock), not noise.
func decodeOptions(c *cursor) contest.Options {
	opts := contest.Options{
		LatencyNs:      latencyLadder[int(c.byte())%len(latencyLadder)],
		MaxLag:         maxLagLadder[int(c.byte())%len(maxLagLadder)],
		StoreQueueCap:  sqCapLadder[int(c.byte())%len(sqCapLadder)],
		ExceptionEvery: excLadder[int(c.byte())%len(excLadder)],
	}
	flags := c.byte()
	opts.ExceptionKillRefork = flags&1 != 0
	opts.NoTrainOnInject = flags&2 != 0
	// State-transfer byte: swept warm-up interval, cold-refork flags, and a
	// lead-change charge. Only effective when kill-refork decoded on (except
	// the lead-change charge, which any contested run may pay).
	wb := c.byte()
	opts.ReforkWarmupNs = warmupLadder[int(wb&3)]
	opts.ReforkColdPredictor = wb&4 != 0
	opts.ReforkColdCaches = wb&8 != 0
	opts.LeadChangeWarmupNs = leadLadder[int(wb>>4)%len(leadLadder)]
	// Worst decodable case: maxFuzzInsts instructions, ~1000 cycles each
	// at a 1ns clock, plus refork and warm-up penalties — still well under
	// 100ms.
	opts.MaxTimeNs = 5e7
	return opts
}

// decodeContest decodes a full contested-run input: trace, 2 or 3 distinct
// core configurations, and options.
func decodeContest(data []byte) (*trace.Trace, []config.CoreConfig, contest.Options) {
	c := &cursor{data: data}
	tr := decodeTrace(c)
	n := 2 + int(c.byte())%2
	cfgs := make([]config.CoreConfig, n)
	for i := range cfgs {
		cfgs[i] = decodeConfig(c, byte(i))
	}
	return tr, cfgs, decodeOptions(c)
}

// decodePipeline decodes a single-core run input: trace and configuration.
func decodePipeline(data []byte) (*trace.Trace, config.CoreConfig) {
	c := &cursor{data: data}
	tr := decodeTrace(c)
	return tr, decodeConfig(c, 0)
}

// decodeInsts decodes raw bytes into a well-formed instruction slice of at
// most maxFuzzInsts instructions, one per up to 20 bytes. The selector byte
// picks the op class, the branch outcome, and whether the PC and a memory
// address are full 64-bit values or drawn from small ranges, so both
// repeating statics and arbitrary wide values occur.
func decodeInsts(data []byte) []isa.Inst {
	c := &cursor{data: data}
	var insts []isa.Inst
	for c.i < len(c.data) && len(insts) < maxFuzzInsts {
		sel := c.byte()
		in := isa.Inst{
			Op:   isa.OpClass(int(sel) % isa.NumOpClasses),
			Src1: isa.RegID(c.byte() % isa.NumRegs),
			Src2: isa.RegID(c.byte() % isa.NumRegs),
			Dst:  isa.RegID(c.byte() % isa.NumRegs),
		}
		if sel&0x40 != 0 {
			in.PC = c.u64()
		} else {
			in.PC = uint64(c.byte()) << 2
		}
		switch in.Op {
		case isa.OpLoad, isa.OpStore:
			if sel&0x80 != 0 {
				in.Addr = c.u64()
			} else {
				in.Addr = uint64(c.u16()) << 3
			}
			if in.Addr == 0 {
				in.Addr = 8
			}
			if in.Op == isa.OpStore {
				in.Dst = isa.NoReg
			} else if in.Dst == isa.NoReg {
				in.Dst = 1
			}
		case isa.OpBranch:
			in.Dst = isa.NoReg
			in.Taken = sel&0x20 != 0
			if in.PC == 0 {
				in.PC = 4
			}
		}
		insts = append(insts, in)
	}
	return insts
}
