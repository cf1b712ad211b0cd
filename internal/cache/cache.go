// Package cache models the private data-cache hierarchy of a core: a
// set-associative L1, a set-associative L2, and a fixed-latency memory
// behind them.
//
// The model is a timing model, not a storage model: it tracks tags and LRU
// state, never data. Accesses return the latency an instruction pays, and
// mutate tag state at access time. Write policy matters to contesting — the
// paper configures private levels as write-through while contesting so that
// stores can be merged below the private hierarchy — so both write-through
// and write-back allocation behaviours are implemented.
package cache

import "fmt"

// Config describes one cache level, using the same fields as the paper's
// Appendix A (associativity, block size, number of sets, access latency in
// cycles).
type Config struct {
	// Sets is the number of sets; must be a power of two.
	Sets int
	// Assoc is the associativity (ways per set).
	Assoc int
	// BlockBytes is the line size in bytes; must be a power of two.
	BlockBytes int
	// LatencyCycles is the access (hit) latency in core cycles.
	LatencyCycles int

	// Replacement names the replacement policy. Empty and "lru" select the
	// built-in true-LRU fast path; any other name resolves through the
	// replacement-policy registry (RegisterReplacer). ReplParams is the
	// opaque parameter string handed to a registered policy's factory.
	Replacement string `json:",omitempty"`
	ReplParams  string `json:",omitempty"`
}

// MaxLines bounds a level's lines (Sets × Assoc). New allocates state for
// every line up front, so an unbounded geometry could exhaust memory before
// the first access; the explore menus reach 2^19 lines and the Appendix A
// palette 2^15.
const MaxLines = 1 << 20

// Validate reports the error New would return for the config. A built-in
// replacement policy is checked without building its state, so admitting
// the largest level allocates nothing; a registered policy can only be
// checked by building it.
func (c Config) Validate() error {
	_, err := c.replacer(false)
	return err
}

// replacer runs New's checks on the config and, if build is set, builds
// the level's replacement policy: nil for the fused LRU path.
func (c Config) replacer(build bool) (Replacer, error) {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return nil, fmt.Errorf("cache: sets %d not a positive power of two", c.Sets)
	}
	if c.Assoc <= 0 {
		return nil, fmt.Errorf("cache: associativity %d not positive", c.Assoc)
	}
	if c.Assoc > MaxLines/c.Sets {
		return nil, fmt.Errorf("cache: %d sets x %d ways exceeds the limit of %d lines", c.Sets, c.Assoc, MaxLines)
	}
	if c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d not a positive power of two", c.BlockBytes)
	}
	if c.LatencyCycles < 1 {
		return nil, fmt.Errorf("cache: latency %d below one cycle", c.LatencyCycles)
	}
	switch {
	case c.Replacement == "" || c.Replacement == "lru":
		if c.ReplParams != "" {
			return nil, fmt.Errorf("cache: built-in LRU takes no params, got %q", c.ReplParams)
		}
		return nil, nil
	case build:
		return replacers.Build(c.Replacement, c)
	default:
		return nil, replacers.Validate(c.Replacement, c)
	}
}

// SizeBytes reports the total capacity of the level.
func (c Config) SizeBytes() int { return c.Sets * c.Assoc * c.BlockBytes }

func (c Config) String() string {
	return fmt.Sprintf("%dsets x %dway x %dB (%dKB, %dcyc)",
		c.Sets, c.Assoc, c.BlockBytes, c.SizeBytes()/1024, c.LatencyCycles)
}

// line is the tracked state of one cache way. The tag and the LRU stamp
// are packed side by side so a set probe walks one contiguous run of
// memory instead of two parallel arrays; the stamp doubles as the valid
// bit — every allocation touches the line, so a line is valid exactly when
// its last-use stamp is non-zero.
type line struct {
	tag   uint64
	stamp uint64 // last-use timestamp; lowest is LRU, 0 is invalid
}

// Cache is one set-associative level. Replacement is true LRU by default
// (the fused fast path below); naming a registered policy in the config
// routes victim choice through the Replacer interface instead.
type Cache struct {
	cfg        Config
	lines      []line // sets*assoc entries
	dirty      []bool
	tick       uint64 // monotonically increasing use counter
	setMask    uint64
	blockShift uint
	setShift   uint // log2(Sets), for the tag extraction in set()
	assoc      int  // cfg.Assoc hoisted next to the hot fields
	// repl is nil for the built-in LRU; non-nil routes Access through the
	// generic replacement path.
	repl Replacer

	// Stats accumulates access counts.
	Stats Stats
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate reports misses per access (0 if no accesses).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// New builds a cache level from the config. Invalid geometry and unknown
// replacement policies surface as errors, mirroring the predictor
// constructors, so configurations decoded from untrusted specs are
// rejected without taking down the process.
func New(cfg Config) (*Cache, error) {
	repl, err := cfg.replacer(true)
	if err != nil {
		return nil, err
	}
	n := cfg.Sets * cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, n),
		dirty:   make([]bool, n),
		setMask: uint64(cfg.Sets - 1),
		assoc:   cfg.Assoc,
		repl:    repl,
	}
	for bs := cfg.BlockBytes; bs > 1; bs >>= 1 {
		c.blockShift++
	}
	c.setShift = uintLog2(cfg.Sets)
	return c, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config reports the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.dirty[i] = false
		c.lines[i] = line{}
	}
	c.tick = 0
	c.Stats = Stats{}
	if c.repl != nil {
		c.repl.Reset()
	}
}

// Invalidate drops every line but keeps the accumulated statistics and the
// LRU clock: it models the cold tag arrays of a killed-and-restarted thread
// in the middle of a run. Dirty lines vanish without a writeback charge —
// acceptable for the write-through configurations the contest layer uses,
// where dirty is never set.
func (c *Cache) Invalidate() {
	for i := range c.lines {
		c.dirty[i] = false
		c.lines[i] = line{}
	}
	// A non-default policy's metadata describes the dropped lines; cold tag
	// arrays mean cold replacement state too.
	if c.repl != nil {
		c.repl.Reset()
	}
}

func (c *Cache) set(addr uint64) (base int, tag uint64) {
	block := addr >> c.blockShift
	return int(block&c.setMask) * c.assoc, block >> c.setShift
}

func uintLog2(n int) uint {
	var s uint
	for ; n > 1; n >>= 1 {
		s++
	}
	return s
}

// touch promotes way w of the set starting at base to MRU.
func (c *Cache) touch(base, w int) {
	c.tick++
	c.lines[base+w].stamp = c.tick
}

// Probe reports whether addr hits without changing any state (no stats, no
// LRU update). Used by tests and by the hierarchy's inclusive checks.
func (c *Cache) Probe(addr uint64) bool {
	base, tag := c.set(addr)
	set := c.lines[base : base+c.assoc]
	for w := range set {
		if set[w].stamp != 0 && set[w].tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr, allocating on miss. write marks the line dirty when
// the level is used write-back. It returns whether the access hit and, on
// miss, whether a dirty victim was evicted (the caller charges write-back
// traffic if it models it).
func (c *Cache) Access(addr uint64, write bool) (hit bool, wroteBack bool) {
	c.Stats.Accesses++
	block := addr >> c.blockShift
	base := int(block&c.setMask) * c.assoc
	tag := block >> c.setShift
	set := c.lines[base : base+c.assoc]
	if c.repl != nil {
		return c.accessReplacer(int(block&c.setMask), base, tag, set, write)
	}
	// One fused pass: probe for the tag and track the LRU victim at the
	// same time, so a miss pays a single walk over the set instead of a
	// hit-scan followed by a victim-scan. The hit exits at the first
	// matching way and the victim keeps the first way with the minimal
	// stamp — exactly what the two separate loops chose, so replacement
	// decisions (and therefore every downstream number) are unchanged. An
	// invalid way has stamp 0 and therefore always wins the victim race.
	if len(set) == 2 {
		// Unrolled two-way probe: the palette's hottest L1 shape.
		l0, l1 := &set[0], &set[1]
		if l0.stamp != 0 && l0.tag == tag {
			c.tick++
			l0.stamp = c.tick
			if write {
				c.dirty[base] = true
			}
			return true, false
		}
		if l1.stamp != 0 && l1.tag == tag {
			c.tick++
			l1.stamp = c.tick
			if write {
				c.dirty[base+1] = true
			}
			return true, false
		}
		victim := 0
		if l1.stamp < l0.stamp {
			victim = 1
		}
		c.Stats.Misses++
		if set[victim].stamp != 0 && c.dirty[base+victim] {
			wroteBack = true
			c.Stats.Writebacks++
		}
		c.tick++
		set[victim] = line{tag: tag, stamp: c.tick}
		c.dirty[base+victim] = write
		return false, wroteBack
	}
	victim, best := 0, ^uint64(0)
	for w := range set {
		l := &set[w]
		s := l.stamp
		if s != 0 && l.tag == tag {
			c.tick++
			l.stamp = c.tick
			if write {
				c.dirty[base+w] = true
			}
			return true, false
		}
		if s < best {
			best = s
			victim = w
		}
	}
	c.Stats.Misses++
	if best != 0 && c.dirty[base+victim] {
		wroteBack = true
		c.Stats.Writebacks++
	}
	c.tick++
	set[victim] = line{tag: tag, stamp: c.tick}
	c.dirty[base+victim] = write
	return false, wroteBack
}

// accessReplacer is the Access tail for a non-default replacement policy:
// the cache still owns tags, validity (stamp != 0), and dirty state; the
// Replacer owns recency metadata and the victim choice on a full set. The
// stamps are maintained exactly as on the LRU path so Probe, Prefill, and
// Invalidate need no policy awareness.
func (c *Cache) accessReplacer(setIdx, base int, tag uint64, set []line, write bool) (hit bool, wroteBack bool) {
	for w := range set {
		if set[w].stamp != 0 && set[w].tag == tag {
			c.tick++
			set[w].stamp = c.tick
			c.repl.Touch(setIdx, w)
			if write {
				c.dirty[base+w] = true
			}
			return true, false
		}
	}
	c.Stats.Misses++
	victim := -1
	for w := range set {
		if set[w].stamp == 0 {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.repl.Victim(setIdx)
		if victim < 0 || victim >= c.assoc {
			// A misbehaving third-party policy must not corrupt memory; way
			// 0 keeps the run deterministic and the conformance suite is
			// where the bug gets reported.
			victim = 0
		}
		if c.dirty[base+victim] {
			wroteBack = true
			c.Stats.Writebacks++
		}
	}
	c.tick++
	set[victim] = line{tag: tag, stamp: c.tick}
	c.dirty[base+victim] = write
	c.repl.Insert(setIdx, victim)
	return false, wroteBack
}

// Prefill installs addr's block without touching demand statistics or
// promoting an already-present line: the fill path for prefetches. It
// returns whether a fill happened (false when the block was already
// resident). A dirty victim still counts a writeback — the eviction
// traffic is real regardless of what triggered it.
func (c *Cache) Prefill(addr uint64) bool {
	block := addr >> c.blockShift
	setIdx := int(block & c.setMask)
	base := setIdx * c.assoc
	tag := block >> c.setShift
	set := c.lines[base : base+c.assoc]
	victim, best := -1, ^uint64(0)
	for w := range set {
		if set[w].stamp != 0 && set[w].tag == tag {
			return false
		}
		if set[w].stamp == 0 {
			if victim < 0 || set[victim].stamp != 0 {
				victim = w
				best = 0
			}
		} else if c.repl == nil && set[w].stamp < best {
			victim = w
			best = set[w].stamp
		}
	}
	if victim < 0 {
		victim = c.repl.Victim(setIdx)
		if victim < 0 || victim >= c.assoc {
			victim = 0
		}
	}
	if set[victim].stamp != 0 && c.dirty[base+victim] {
		c.Stats.Writebacks++
	}
	c.tick++
	set[victim] = line{tag: tag, stamp: c.tick}
	c.dirty[base+victim] = false
	if c.repl != nil {
		c.repl.Insert(setIdx, victim)
	}
	return true
}

// WritePolicy selects how stores interact with the private levels.
type WritePolicy uint8

const (
	// WriteThrough sends every store through the private levels (contesting
	// mode: the merged instance below is handled by the store queue).
	WriteThrough WritePolicy = iota
	// WriteBack dirties lines and writes back on eviction.
	WriteBack
)

func (p WritePolicy) String() string {
	if p == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// Bandwidth occupancies of the shared structures behind the L1, in core
// cycles per access. Back-to-back misses queue, so a core whose L1 filters
// nothing becomes L2-bandwidth-bound — the realistic cost of a tiny L1 —
// and transfer time grows with the burst length, so huge blocks buy their
// latency amortization with bandwidth, the classic block-size trade-off.
const (
	l2OccupancyBase  = 2  // L2 port cycles per access
	l2OccupancyDiv   = 32 // plus one cycle per this many bytes of L1 fill
	memOccupancyBase = 4  // memory channel cycles per access
	memOccupancyDiv  = 16 // plus one cycle per this many bytes transferred
)

// L2OccupancyCycles reports how long one access filling a block of the
// given size occupies the L2 port.
func L2OccupancyCycles(fillBytes int) int64 {
	return l2OccupancyBase + int64(fillBytes/l2OccupancyDiv)
}

// MemOccupancyCycles reports how long one access transferring a block of
// the given size occupies the memory channel.
func MemOccupancyCycles(blockBytes int) int64 {
	return memOccupancyBase + int64(blockBytes/memOccupancyDiv)
}

// Hierarchy is a two-level private hierarchy over a fixed-latency memory,
// with a simple occupancy-based bandwidth model for the L2 and the memory
// channel.
type Hierarchy struct {
	L1, L2 *Cache
	// MemLatencyCycles is the latency of an access that misses both levels.
	MemLatencyCycles int
	// Policy is the store write policy of the private levels.
	Policy WritePolicy

	l2Free, memFree int64 // next cycle each shared structure is free

	// Latencies and occupancies cached at construction, so the load path
	// does not re-derive them from the level configs on every access.
	l1Lat, l2Lat  int64
	l2Occ, memOcc int64

	// pf, when non-nil, observes every demand load and issues prefetch
	// fills behind the demand stream (see AttachPrefetcher). pfBuf is its
	// reusable scratch, sized so no conforming prefetcher needs to grow it.
	pf    Prefetcher
	pfBuf [8]uint64

	// Prefetches counts issued prefetch fills (blocks actually brought into
	// the L1; already-resident candidates are not counted).
	Prefetches uint64
}

// NewHierarchy builds the hierarchy. An invalid level or memory latency is
// an error, reported as New reports it.
func NewHierarchy(l1, l2 Config, memLatency int, policy WritePolicy) (*Hierarchy, error) {
	if memLatency < 1 {
		return nil, fmt.Errorf("cache: memory latency %d below one cycle", memLatency)
	}
	c1, err := New(l1)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	c2, err := New(l2)
	if err != nil {
		return nil, fmt.Errorf("L2D: %w", err)
	}
	return &Hierarchy{
		L1:               c1,
		L2:               c2,
		MemLatencyCycles: memLatency,
		Policy:           policy,
		l1Lat:            int64(l1.LatencyCycles),
		l2Lat:            int64(l2.LatencyCycles),
		l2Occ:            L2OccupancyCycles(l1.BlockBytes),
		memOcc:           MemOccupancyCycles(l2.BlockBytes),
	}, nil
}

// AttachPrefetcher resolves and installs the configured prefetcher. The
// zero config detaches (today's behaviour — no hook in the load path).
func (h *Hierarchy) AttachPrefetcher(cfg PrefetchConfig) error {
	pf, err := NewPrefetcher(cfg, h.L1.Config().BlockBytes)
	if err != nil {
		return err
	}
	h.pf = pf
	return nil
}

// Reset invalidates both levels and clears statistics and port state.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.l2Free = 0
	h.memFree = 0
	h.Prefetches = 0
	if h.pf != nil {
		h.pf.Reset()
	}
}

// Invalidate drops every line in both levels while keeping statistics and
// port state, modelling a cold cache handed to a freshly reforked core
// mid-run without corrupting the run's accumulated counters.
func (h *Hierarchy) Invalidate() {
	h.L1.Invalidate()
	h.L2.Invalidate()
	if h.pf != nil {
		h.pf.Reset()
	}
}

// l2Access runs one access through the L2 port starting no earlier than
// `earliest`, and returns the cycle the L2 delivers.
func (h *Hierarchy) l2Access(addr uint64, earliest int64, write bool) (doneAt int64, hit bool) {
	start := earliest
	if h.l2Free > start {
		start = h.l2Free
	}
	h.l2Free = start + h.l2Occ
	hit, _ = h.L2.Access(addr, write)
	return start + h.l2Lat, hit
}

// memAccess runs one access through the memory channel starting no earlier
// than `earliest`, and returns the cycle memory delivers.
func (h *Hierarchy) memAccess(earliest int64) int64 {
	start := earliest
	if h.memFree > start {
		start = h.memFree
	}
	h.memFree = start + h.memOcc
	return start + int64(h.MemLatencyCycles)
}

// Load looks up a read of addr issued at cycle `now` and returns its
// latency in cycles, including any queueing on the L2 port and the memory
// channel. With a prefetcher attached, prefetch fills are issued after the
// demand access resolves: they occupy the L2 port (and the memory channel
// on an L2 miss) behind the demand stream, so aggressive prefetching costs
// bandwidth, but they never lengthen the triggering load itself.
func (h *Hierarchy) Load(addr uint64, now int64) int {
	l1Done := now + h.l1Lat
	if hit, _ := h.L1.Access(addr, false); hit {
		if h.pf != nil {
			h.prefetchAfter(addr, false, l1Done)
		}
		return int(l1Done - now)
	}
	l2Done, hit := h.l2Access(addr, l1Done, false)
	if hit {
		if h.pf != nil {
			h.prefetchAfter(addr, true, l2Done)
		}
		return int(l2Done - now)
	}
	done := h.memAccess(l2Done)
	if h.pf != nil {
		h.prefetchAfter(addr, true, done)
	}
	return int(done - now)
}

// prefetchAfter consults the prefetcher about the demand access and issues
// the fills it asks for. A candidate already resident in L1 is dropped; a
// fill probes L2 without demand stats, charges L2-port occupancy, and on
// an L2 miss charges memory-channel occupancy and fills L2 too.
func (h *Hierarchy) prefetchAfter(addr uint64, miss bool, earliest int64) {
	for _, pa := range h.pf.OnAccess(addr, miss, h.pfBuf[:0]) {
		if h.L1.Probe(pa) {
			continue
		}
		h.Prefetches++
		start := earliest
		if h.l2Free > start {
			start = h.l2Free
		}
		h.l2Free = start + h.l2Occ
		if !h.L2.Probe(pa) {
			mstart := start + h.l2Lat
			if h.memFree > mstart {
				mstart = h.memFree
			}
			h.memFree = mstart + h.memOcc
			h.L2.Prefill(pa)
		}
		h.L1.Prefill(pa)
	}
}

// Store performs a write of addr at cycle `now` and returns the latency the
// store occupies its cache port. Under write-through the store also
// propagates to L2 (the merged write below L2 is the synchronizing store
// queue's job); under write-back it dirties the L1 line, filling it on a
// miss.
func (h *Hierarchy) Store(addr uint64, now int64) int {
	l1Lat := h.l1Lat
	switch h.Policy {
	case WriteThrough:
		// The store allocates in L1 on a miss (clean: its data is written
		// below too) and writes L2 on every store, hit or miss. The
		// write-through traffic drains through a coalescing write buffer in
		// the background, so it updates L2 state but does not occupy the
		// L2 port in the load path and costs only the L1 port time.
		h.L1.Access(addr, false)
		h.L2.Access(addr, true)
		return int(l1Lat)
	default: // WriteBack
		if hit, _ := h.L1.Access(addr, true); hit {
			return int(l1Lat)
		}
		// Allocate-on-write-miss: fill from L2/memory.
		l2Done, hit := h.l2Access(addr, now+l1Lat, false)
		if hit {
			return int(l2Done - now)
		}
		return int(h.memAccess(l2Done) - now)
	}
}
