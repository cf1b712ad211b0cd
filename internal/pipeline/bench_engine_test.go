package pipeline

// Allocation regression tests for the engine: hard zero-allocation
// assertions on the steady-state step loop, including the overflow-heap
// and divider-retry paths, which a missing scratch preallocation would
// silently regress.

import (
	"runtime"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/isa"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// mallocsDuring returns the exact number of heap allocations performed by
// f on this goroutine.
func mallocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStepLoopDoesNotAllocate: after construction, running a whole
// mixed-workload trace performs zero heap allocations — every scratch
// structure (timing wheel, overflow heap, retry list, bitmap words) must
// be sized at construction. This is the regression fence for campaigns,
// where per-step allocations multiply across every leaf run. testConfig's
// wheel covers every wake-up, so the gap palette core's leg, whose
// cache-port queueing pushes wake-ups past its wheel horizon, fences the
// overflow heap; it must reach the heap or it fences nothing.
func TestStepLoopDoesNotAllocate(t *testing.T) {
	for _, leg := range []struct {
		bench    string
		n        int
		cfg      config.CoreConfig
		overflow bool
	}{
		{"mcf", 50_000, testConfig(), false},
		{"crafty", 50_000, testConfig(), false},
		{"mcf", 20_000, config.MustPaletteCore("gap"), true},
	} {
		tr := workload.MustGenerate(leg.bench, leg.n)
		c, err := NewCore(leg.cfg, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxHeap := 0
		if n := mallocsDuring(func() {
			for !c.Done() {
				c.Advance()
				maxHeap = max(maxHeap, len(c.wakeQ))
			}
		}); n != 0 {
			t.Errorf("%s on %s: step loop performed %d heap allocations, want 0", leg.bench, leg.cfg.Name, n)
		}
		if leg.overflow && maxHeap == 0 {
			t.Errorf("%s on %s: no wake-up reached the overflow heap", leg.bench, leg.cfg.Name)
		}
	}
}

// TestDivRetryDoesNotAllocate drives the divider-retry path hard: a wide
// window full of independent divides keeps the unpipelined divider busy,
// so every scheduling pass defers ready divides through the retry scratch
// list. If that list were not preallocated to IQ capacity at construction
// (the latent regression this test fences), the growth would show up here
// as run-time allocations.
func TestDivRetryDoesNotAllocate(t *testing.T) {
	insts := make([]isa.Inst, 4096)
	for i := range insts {
		insts[i] = isa.Inst{Op: isa.OpDiv, PC: 0x40, Dst: isa.RegID(10 + i%32), Src1: 1}
	}
	c, err := NewCore(testConfig(), trace.New("divs", insts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := mallocsDuring(func() {
		for !c.Done() {
			c.Advance()
		}
	}); n != 0 {
		t.Errorf("div-retry loop performed %d heap allocations, want 0", n)
	}
	if got := c.Stats().Retired; got != int64(len(insts)) {
		t.Fatalf("retired %d of %d", got, len(insts))
	}
}
