package workload

import (
	"fmt"

	"archcontest/internal/isa"
	"archcontest/internal/trace"
	"archcontest/internal/xrand"
)

// Register allocation convention of the synthetic traces. Keeping the roles
// fixed makes dependence structure auditable in dumps.
const (
	regStreamBase isa.RegID = 1 // always-ready base for stream addressing
	regHotBase    isa.RegID = 2 // always-ready base for scratch addressing
	regChain0     isa.RegID = 3 // r3..r14: pointer-chase chain registers
	maxChains               = 12
	regSerial     isa.RegID = 48 // scalar dependence-chain accumulator
	regCond       isa.RegID = 49 // branch condition register
	poolBase      isa.RegID = 16 // r16..r47: rotating ILP destination pool
	poolSize                = 32
)

// Memory region bases; regions are disjoint so archetype working sets do not
// alias each other.
const (
	streamRegion  uint64 = 0x1000_0000
	pointerRegion uint64 = 0x2000_0000
	hotRegion     uint64 = 0x3000_0000
)

// branchSite is one static branch with a deterministic outcome generator.
// Non-noisy sites repeat a short fixed direction pattern — the outcome
// stream of a small loop nest — which global-history predictors learn
// nearly perfectly because the high-entropy pattern makes every history
// window distinctive. Noisy sites are inherently unpredictable.
type branchSite struct {
	pc      uint64
	pattern uint32 // low `length` bits, repeated
	length  int
	phase   int
	noisy   bool
}

func (b *branchSite) next(r *xrand.RNG) bool {
	if b.noisy {
		return r.Bool(0.5)
	}
	taken := b.pattern>>b.phase&1 == 1
	b.phase++
	if b.phase >= b.length {
		b.phase = 0
	}
	return taken
}

// generator holds the persistent cross-phase state of one benchmark's
// synthesis: working-set cursors survive phase switches so locality is a
// property of the program, not of the phase instance.
type generator struct {
	p        Profile
	rPhase   *xrand.RNG // phase selection and lengths
	rBranch  *xrand.RNG // branch outcomes
	rAddr    *xrand.RNG // address jitter
	rMisc    *xrand.RNG // op mix decisions
	cat      *xrand.Categorical
	enc      *trace.Encoder
	lastArch Archetype

	streamPos  uint64 // load cursor within the stream region
	storePos   uint64 // trailing store cursor
	burstLeft  int    // stream elements left before the cursor jumps
	chainAddr  []uint64
	chainStep  uint64
	chainRot   int
	poolIdx    int
	scratchWay int
	lastVal    isa.RegID // most recently produced value; branch conditions read it
	sites      [NumArchetypes][]*branchSite
	siteRot    [NumArchetypes]int // round-robin cursor over each archetype's sites
}

func newGenerator(p Profile) *generator {
	root := xrand.New(p.Seed)
	g := &generator{
		p:       p,
		rPhase:  root.Split(),
		rBranch: root.Split(),
		rAddr:   root.Split(),
		rMisc:   root.Split(),
		cat:     xrand.NewCategorical(p.Weights[:]),
	}
	g.chainAddr = make([]uint64, p.Chains)
	for k := range g.chainAddr {
		g.chainAddr[k] = g.pointerAddr(uint64(k) * 977)
	}
	return g
}

// site returns the i-th static branch site of the archetype, creating it
// deterministically on first use. Branchy sites carry the profile's noise
// probability; other archetypes' loop branches are always predictable.
func (g *generator) site(a Archetype, i int) *branchSite {
	ss := g.sites[a]
	for len(ss) <= i {
		idx := len(ss)
		pc := uint64(a+1)<<16 | uint64(idx)<<6
		noisy := false
		if a == Branchy || a == Scratch || a == Pointer {
			noisy = g.rBranch.Bool(g.p.BranchNoise)
		}
		// A uniform pattern length keeps the composite period of the
		// interleaved sites short (length x sites), so every history window
		// recurs often enough for the predictor's counters to train; mixed
		// lengths would blow the composite period up to the LCM and starve
		// every table entry. At least one taken and one not-taken bit so
		// the site is biased toward neither constant.
		const length = 4
		pattern := uint32(g.rBranch.Intn(1<<length-2) + 1)
		ss = append(ss, &branchSite{
			pc:      pc,
			pattern: pattern,
			length:  length,
			noisy:   noisy,
		})
		g.sites[a] = ss
	}
	return ss[i]
}

// nextSite cycles deterministically through n static sites of the
// archetype. Deterministic site sequencing keeps the global branch history
// informative, so history predictors can learn the loop patterns; random
// site interleaving would reduce every predictor to per-site counters.
func (g *generator) nextSite(a Archetype, n int) int {
	i := g.siteRot[a] % n
	g.siteRot[a]++
	return i
}

func (g *generator) pool(offset int) isa.RegID {
	return poolBase + isa.RegID((g.poolIdx+poolSize+offset)%poolSize)
}

// pointerAddr maps a mixing value into an 8-byte-aligned address of the
// pointer region.
func (g *generator) pointerAddr(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return pointerRegion + v%(g.p.Footprint/8)*8
}

func (g *generator) emit(in isa.Inst) { g.enc.Add(&in) }

// emitBranch emits a branch whose condition reads the most recently
// produced value. Tying the condition to live data makes branch resolution
// wait for the producing computation — in memory-heavy regions the cache
// latency lands squarely in the misprediction penalty, as it does in real
// code that branches on loaded values.
func (g *generator) emitBranch(a Archetype, siteIdx int) {
	s := g.site(a, siteIdx)
	cond := g.lastVal
	if cond == isa.NoReg {
		cond = regCond
	}
	g.emit(isa.Inst{
		Op: isa.OpBranch, PC: s.pc,
		Src1: cond, Taken: s.next(g.rBranch),
	})
}

// alu emits one integer operation into the rotating pool with the profile's
// dependence distance.
func (g *generator) alu(a Archetype, op isa.OpClass) {
	d := g.p.ILPDegree
	if d < 2 {
		d = 2
	}
	g.emit(isa.Inst{
		Op: op, PC: uint64(a+1)<<16 | 0x8000 | uint64(g.poolIdx%64)<<2,
		Dst: g.pool(0), Src1: g.pool(-d), Src2: g.pool(-d - 1),
	})
	g.lastVal = g.pool(0)
	g.poolIdx++
}

// phaseILP emits wide independent computation with predictable loop
// branches.
func (g *generator) phaseILP(budget int) int {
	n := 0
	for n < budget {
		blk := 8 + g.rMisc.Intn(8)
		for i := 0; i < blk && n < budget; i++ {
			op := isa.OpALU
			if g.rMisc.Bool(0.05) {
				op = isa.OpMul
			}
			g.alu(ILP, op)
			n++
		}
		if n < budget {
			g.emitBranch(ILP, g.nextSite(ILP, 4))
			n++
		}
	}
	return n
}

// phaseSerial emits a scalar dependence chain: every operation consumes the
// previous one's result, so throughput is (1+wakeup) cycles per op.
func (g *generator) phaseSerial(budget int) int {
	n := 0
	for n < budget {
		for i := 0; i < 9 && n < budget; i++ {
			op := isa.OpALU
			if g.rMisc.Bool(0.08) {
				op = isa.OpMul
			}
			g.emit(isa.Inst{
				Op: op, PC: uint64(Serial+1)<<16 | 0x8000 | uint64(i)<<2,
				Dst: regSerial, Src1: regSerial, Src2: g.pool(-1),
			})
			g.lastVal = regSerial
			n++
		}
		if n < budget {
			g.emitBranch(Serial, 0)
			n++
		}
	}
	return n
}

// phaseBranchy emits short blocks terminated by data-dependent branches,
// a profile-controlled fraction of which are unpredictable.
func (g *generator) phaseBranchy(budget int) int {
	n := 0
	for n < budget {
		blk := 2 + g.rMisc.Intn(3)
		for i := 0; i < blk && n < budget; i++ {
			g.alu(Branchy, isa.OpALU)
			n++
		}
		if n < budget {
			g.emitBranch(Branchy, g.nextSite(Branchy, 24))
			n++
		}
	}
	return n
}

// phaseStream marches sequentially through the large footprint with the
// profile's stride; a trailing cursor issues stores.
func (g *generator) phaseStream(budget int) int {
	n := 0
	for n < budget {
		for i := 0; i < 4 && n < budget; i++ {
			addr := streamRegion + g.streamPos
			g.streamPos += g.p.StrideBytes
			if g.streamPos >= g.p.Footprint {
				g.streamPos = 0
			}
			if g.p.StreamBurst > 0 {
				if g.burstLeft <= 0 {
					g.streamPos = uint64(g.rAddr.Intn(int(g.p.Footprint/8))) * 8
					g.burstLeft = g.p.StreamBurst
				}
				g.burstLeft--
			}
			g.emit(isa.Inst{
				Op: isa.OpLoad, PC: uint64(Stream+1)<<16 | 0x8000,
				Dst: g.pool(0), Src1: regStreamBase, Addr: addr,
			})
			g.lastVal = g.pool(0)
			g.poolIdx++
			n++
			if n < budget {
				// Consume the loaded value.
				g.alu(Stream, isa.OpALU)
				n++
			}
			if n < budget && g.rMisc.Bool(g.p.StoreFrac) {
				saddr := streamRegion + g.storePos
				g.storePos += g.p.StrideBytes
				if g.storePos >= g.p.Footprint {
					g.storePos = 0
				}
				g.emit(isa.Inst{
					Op: isa.OpStore, PC: uint64(Stream+1)<<16 | 0x8100,
					Src1: regStreamBase, Src2: g.pool(-1), Addr: saddr,
				})
				n++
			}
		}
		if n < budget {
			g.emitBranch(Stream, 0)
			n++
		}
	}
	return n
}

// phasePointer interleaves the profile's dependent-load chains: each load's
// address register is its own previous destination, so chains are serial
// and only the window can overlap them.
func (g *generator) phasePointer(budget int) int {
	n := 0
	for n < budget {
		for i := 0; i < 3 && n < budget; i++ {
			k := g.chainRot % g.p.Chains
			g.chainRot++
			reg := regChain0 + isa.RegID(k)
			addr := g.chainAddr[k]
			// Include a monotonic step counter in the hash input so each
			// chain is a uniform random walk over the footprint rather than
			// a fixed functional orbit (which would collapse into a short
			// cycle and shrink the effective working set).
			g.chainStep++
			g.chainAddr[k] = g.pointerAddr(addr + g.chainStep*0x9e37_79b9 + uint64(k))
			g.emit(isa.Inst{
				Op: isa.OpLoad, PC: uint64(Pointer+1)<<16 | 0x8000 | uint64(k)<<2,
				Dst: reg, Src1: reg, Addr: addr,
			})
			g.lastVal = reg
			n++
			if n < budget && g.rMisc.Bool(0.5) {
				// Light computation on the loaded node.
				g.emit(isa.Inst{
					Op: isa.OpALU, PC: uint64(Pointer+1)<<16 | 0x8100,
					Dst: g.pool(0), Src1: reg, Src2: g.pool(-2),
				})
				g.poolIdx++
				n++
			}
		}
		if n < budget {
			g.emitBranch(Pointer, g.nextSite(Pointer, 6))
			n++
		}
	}
	return n
}

// phaseScratch emits loads and stores over the small hot region with a
// set-conflict-prone stride: ConflictWays distinct 8KB-spaced blocks are
// cycled, so low-associativity caches whose way size divides 8KB thrash.
func (g *generator) phaseScratch(budget int) int {
	n := 0
	conflictStride := g.p.ConflictStride
	if conflictStride == 0 {
		conflictStride = 8 << 10
	}
	for n < budget {
		for i := 0; i < 3 && n < budget; i++ {
			way := g.scratchWay % g.p.ConflictWays
			g.scratchWay++
			span := g.p.HotBytes / uint64(g.p.ConflictWays)
			if span == 0 {
				span = 64
			}
			off := uint64(g.rAddr.Intn(int(span))) &^ 7
			addr := hotRegion + uint64(way)*conflictStride + off
			if g.rMisc.Bool(g.p.StoreFrac) {
				g.emit(isa.Inst{
					Op: isa.OpStore, PC: uint64(Scratch+1)<<16 | 0x8100,
					Src1: regHotBase, Src2: g.pool(-1), Addr: addr,
				})
			} else {
				// Index-dependent accesses: a fraction of scratch loads
				// compute their address from the previous load's value, so
				// cache latency — not just bandwidth — shapes throughput.
				base := regHotBase
				if g.lastVal != isa.NoReg && g.rMisc.Bool(0.6) {
					base = g.lastVal
				}
				g.emit(isa.Inst{
					Op: isa.OpLoad, PC: uint64(Scratch+1)<<16 | 0x8000,
					Dst: g.pool(0), Src1: base, Addr: addr,
				})
				g.lastVal = g.pool(0)
				g.poolIdx++
			}
			n++
			if n < budget {
				g.alu(Scratch, isa.OpALU)
				n++
			}
		}
		if n < budget {
			g.emitBranch(Scratch, g.nextSite(Scratch, 8))
			n++
		}
	}
	return n
}

func (g *generator) runPhase(a Archetype, budget int) int {
	switch a {
	case ILP:
		return g.phaseILP(budget)
	case Serial:
		return g.phaseSerial(budget)
	case Branchy:
		return g.phaseBranchy(budget)
	case Stream:
		return g.phaseStream(budget)
	case Pointer:
		return g.phasePointer(budget)
	case Scratch:
		return g.phaseScratch(budget)
	default:
		panic(fmt.Sprintf("workload: unknown archetype %v", a))
	}
}

// nextArchetype draws the next phase archetype, avoiding an immediate
// repeat when the profile has more than one archetype (behaviour change is
// the point of a phase boundary).
func (g *generator) nextArchetype() Archetype {
	a := Archetype(g.cat.Sample(g.rPhase))
	if a == g.lastArch {
		a = Archetype(g.cat.Sample(g.rPhase))
	}
	g.lastArch = a
	return a
}

// Generate synthesizes a trace of n dynamic instructions for the profile,
// encoding them as they are generated (no phase overshoots its budget, so
// the trace is exactly n long).
func Generate(p Profile, n int) (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive trace length %d", n)
	}
	if p.Chains > maxChains {
		return nil, fmt.Errorf("workload %s: %d chains exceeds register budget %d", p.Name, p.Chains, maxChains)
	}
	g := newGenerator(p)
	g.enc = trace.NewEncoder(n)
	for g.enc.Len() < n {
		a := g.nextArchetype()
		mean := p.MeanPhaseLen[a]
		if mean < 8 {
			mean = 8
		}
		budget := g.rPhase.Geometric(mean)
		if budget < 8 {
			budget = 8
		}
		if rem := n - g.enc.Len(); budget > rem {
			budget = rem
		}
		g.runPhase(a, budget)
	}
	tr := g.enc.Trace(p.Name)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: generated invalid trace: %w", p.Name, err)
	}
	return tr, nil
}

// MustGenerate is Generate for known-good registry profiles; it panics on
// error.
func MustGenerate(name string, n int) *trace.Trace {
	p, err := ProfileFor(name)
	if err != nil {
		panic(err)
	}
	tr, err := Generate(p, n)
	if err != nil {
		panic(err)
	}
	return tr
}
