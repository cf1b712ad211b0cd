package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"archcontest/internal/xrand"
)

func cfg(sets, assoc, block, lat int) Config {
	return Config{Sets: sets, Assoc: assoc, BlockBytes: block, LatencyCycles: lat}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		cfg(1, 1, 8, 1),
		cfg(1024, 4, 64, 3),
		cfg(32, 16, 512, 12),
		cfg(1<<10, 1<<10, 64, 1), // exactly MaxLines
		cfg(1<<20, 1, 64, 1),
		cfg(1, 1<<20, 64, 1),
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
	bad := []Config{
		cfg(0, 1, 8, 1),
		cfg(3, 1, 8, 1),  // not power of two
		cfg(8, 0, 8, 1),  // zero assoc
		cfg(8, 1, 0, 1),  // zero block
		cfg(8, 1, 48, 1), // non-power-of-two block
		cfg(8, 1, 8, 0),  // zero latency
		cfg(8, 1, 8, -1), // negative latency
		cfg(-8, 1, 8, 1), // negative sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v accepted", c)
		}
	}
}

// TestConfigValidateLineLimit: a level of more than MaxLines lines is
// rejected with the limit named, before New could allocate it, and the
// product cannot overflow past the check.
func TestConfigValidateLineLimit(t *testing.T) {
	for _, c := range []Config{
		cfg(1<<30, 1<<10, 64, 1), // 2^40 lines
		cfg(1<<10, 1<<10+1, 64, 1),
		cfg(1<<20, 2, 64, 1),
		cfg(1, 1<<20+1, 64, 1),
		cfg(1<<62, 1<<62, 64, 1), // the product wraps to zero
	} {
		err := c.Validate()
		if err == nil {
			t.Errorf("%d sets x %d ways accepted", c.Sets, c.Assoc)
		} else if !strings.Contains(err.Error(), "limit of 1048576 lines") {
			t.Errorf("%d sets x %d ways: error %q does not name the limit", c.Sets, c.Assoc, err)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	c := cfg(1024, 2, 32, 2) // bzip L1D
	if got := c.SizeBytes(); got != 64*1024 {
		t.Errorf("size = %d, want 64KB", got)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(cfg(16, 2, 64, 1))
	if hit, _ := c.Access(0x1000, false); hit {
		t.Fatal("first access should miss")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access should hit")
	}
	// Same block, different offset.
	if hit, _ := c.Access(0x103f, false); !hit {
		t.Fatal("same-block access should hit")
	}
	// Next block misses.
	if hit, _ := c.Access(0x1040, false); hit {
		t.Fatal("next block should miss")
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct-mapped-by-set: 1 set total exposes pure LRU ordering.
	c := MustNew(cfg(1, 2, 64, 1))
	c.Access(0x0000, false) // A
	c.Access(0x1000, false) // B; set is {A,B}, LRU=A
	c.Access(0x0000, false) // touch A; LRU=B
	c.Access(0x2000, false) // C evicts B
	if !c.Probe(0x0000) {
		t.Error("A should still be resident")
	}
	if c.Probe(0x1000) {
		t.Error("B should have been evicted")
	}
	if !c.Probe(0x2000) {
		t.Error("C should be resident")
	}
}

func TestConflictMisses(t *testing.T) {
	// Direct-mapped: two blocks mapping to the same set thrash.
	c := MustNew(cfg(4, 1, 64, 1))
	a := uint64(0x0000)
	b := a + 4*64 // same set, different tag
	c.Access(a, false)
	c.Access(b, false)
	if c.Probe(a) {
		t.Error("direct-mapped conflict should have evicted a")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := MustNew(cfg(1, 1, 64, 1))
	c.Access(0x0000, true) // dirty fill
	_, wb := c.Access(0x1000, false)
	if !wb {
		t.Error("evicting a dirty line should report a writeback")
	}
	_, wb = c.Access(0x2000, false)
	if wb {
		t.Error("evicting a clean line should not report a writeback")
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestStats(t *testing.T) {
	c := MustNew(cfg(16, 2, 64, 1))
	for i := 0; i < 10; i++ {
		c.Access(uint64(i)*64, false)
	}
	for i := 0; i < 10; i++ {
		c.Access(uint64(i)*64, false)
	}
	if c.Stats.Accesses != 20 || c.Stats.Misses != 10 {
		t.Errorf("stats = %+v, want 20 accesses 10 misses", c.Stats)
	}
	if mr := c.Stats.MissRate(); mr != 0.5 {
		t.Errorf("miss rate = %g, want 0.5", mr)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
}

func TestReset(t *testing.T) {
	c := MustNew(cfg(16, 2, 64, 1))
	c.Access(0x40, false)
	c.Reset()
	if c.Probe(0x40) {
		t.Error("line survives reset")
	}
	if c.Stats.Accesses != 0 {
		t.Error("stats survive reset")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(cfg(16, 2, 64, 2), cfg(256, 4, 64, 10), 100, WriteBack)
	if err != nil {
		t.Fatal(err)
	}
	// Cold: L1 miss + L2 miss + memory.
	if lat := h.Load(0x4000, 0); lat != 2+10+100 {
		t.Errorf("cold load latency %d, want 112", lat)
	}
	// Warm L1.
	if lat := h.Load(0x4000, 0); lat != 2 {
		t.Errorf("L1-hit latency %d, want 2", lat)
	}
	// Evict from L1 only: larger L2 keeps the block. Space the accesses out
	// in time so the L2 port queue is idle for the final probe.
	for i := 1; i <= 32; i++ {
		h.Load(uint64(0x4000+i*16*64), int64(i)*200) // same L1 set region, fill L1
	}
	lat := h.Load(0x4000, 10_000)
	if lat != 2+10 {
		t.Errorf("L2-hit latency %d, want 12", lat)
	}
}

func TestL2PortQueueing(t *testing.T) {
	h, err := NewHierarchy(cfg(16, 2, 64, 2), cfg(256, 4, 64, 10), 100, WriteBack)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct blocks, all issued at cycle 0: each L2 access occupies the
	// port, so the k-th should be delayed by ~k*L2OccupancyCycles.
	first := h.Load(0x10000, 0)
	var last int
	for i := 1; i < 8; i++ {
		last = h.Load(uint64(0x10000+i*64), 0)
	}
	if last < first+6*int(L2OccupancyCycles(64)) {
		t.Errorf("8th simultaneous miss latency %d vs first %d: expected L2 port queueing", last, first)
	}
}

func TestMemChannelQueueing(t *testing.T) {
	h, err := NewHierarchy(cfg(2, 1, 64, 1), cfg(2, 1, 64, 2), 100, WriteBack)
	if err != nil {
		t.Fatal(err)
	}
	first := h.Load(0x10000, 0)
	var last int
	for i := 1; i < 4; i++ {
		last = h.Load(uint64(0x10000+i*1024), 0)
	}
	if last < first+3*int(MemOccupancyCycles(64)) {
		t.Errorf("4th simultaneous memory miss latency %d vs first %d: expected channel queueing", last, first)
	}
}

func TestHierarchyWriteThroughStore(t *testing.T) {
	h, err := NewHierarchy(cfg(16, 2, 64, 2), cfg(256, 4, 64, 10), 100, WriteThrough)
	if err != nil {
		t.Fatal(err)
	}
	if lat := h.Store(0x8000, 0); lat != 2 {
		t.Errorf("write-through store latency %d, want L1 port time 2", lat)
	}
	// The store allocated in L2 (write-through propagates).
	if !h.L2.Probe(0x8000) {
		t.Error("write-through store should install the block in L2")
	}
}

func TestHierarchyWriteBackStore(t *testing.T) {
	h, err := NewHierarchy(cfg(16, 2, 64, 2), cfg(256, 4, 64, 10), 100, WriteBack)
	if err != nil {
		t.Fatal(err)
	}
	if lat := h.Store(0x8000, 0); lat != 112 {
		t.Errorf("cold write-back store latency %d, want 112 (allocate)", lat)
	}
	if lat := h.Store(0x8000, 0); lat != 2 {
		t.Errorf("warm write-back store latency %d, want 2", lat)
	}
}

func TestNewHierarchyRejectsInvalid(t *testing.T) {
	good := cfg(16, 2, 64, 2)
	if _, err := NewHierarchy(cfg(0, 1, 8, 1), good, 100, WriteBack); err == nil {
		t.Error("bad L1 accepted")
	}
	if _, err := NewHierarchy(good, cfg(0, 1, 8, 1), 100, WriteBack); err == nil {
		t.Error("bad L2 accepted")
	}
	if _, err := NewHierarchy(good, good, 0, WriteBack); err == nil {
		t.Error("zero memory latency accepted")
	}
}

func TestWritePolicyString(t *testing.T) {
	if WriteThrough.String() != "write-through" || WriteBack.String() != "write-back" {
		t.Error("policy names wrong")
	}
}

// Property: a cache never holds more distinct blocks than its capacity, and
// an immediate re-access of the most recent address always hits.
func TestMRUHitsProperty(t *testing.T) {
	f := func(seed uint64, setsPow, assocRaw uint8) bool {
		sets := 1 << (setsPow%6 + 1)
		assoc := int(assocRaw)%4 + 1
		c := MustNew(cfg(sets, assoc, 64, 1))
		r := xrand.New(seed)
		for i := 0; i < 500; i++ {
			addr := uint64(r.Intn(1 << 16))
			c.Access(addr, r.Bool(0.3))
			if !c.Probe(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: miss count never exceeds access count, and working sets that fit
// in the cache converge to zero misses on re-traversal.
func TestFittingWorkingSetProperty(t *testing.T) {
	f := func(seed uint64) bool {
		c := MustNew(cfg(64, 4, 64, 1)) // 16KB
		// Working set: 128 blocks = 8KB, fits with room to spare.
		var addrs []uint64
		r := xrand.New(seed)
		for i := 0; i < 128; i++ {
			addrs = append(addrs, uint64(i)*64+uint64(r.Intn(32)))
		}
		for pass := 0; pass < 2; pass++ {
			for _, a := range addrs {
				c.Access(a, false)
			}
		}
		before := c.Stats.Misses
		for _, a := range addrs {
			c.Access(a, false)
		}
		return c.Stats.Misses == before && c.Stats.Misses <= c.Stats.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
