package pipeline

// Focused coverage of the early-resolved-branch issue-queue path: a branch
// that is already dispatched (occupying an IQ slot, parked on its
// producer's wake list) gets its outcome from the feed while fetch-gated.
// It must free its IQ slot immediately and be skipped, not re-queued, when
// its producer later completes and wakes its dependents.

import (
	"testing"

	"archcontest/internal/isa"
	"archcontest/internal/ticks"
	"archcontest/internal/trace"
)

// branchOnlyFeed makes branch outcomes (and everything after `from` ticks)
// visible, so the first in-flight mispredicted branch resolves early while
// the load feeding it is still executing.
type branchOnlyFeed struct {
	tr   *trace.Trace
	from ticks.Time
}

func (f *branchOnlyFeed) ResultAvailable(idx int64, t ticks.Time) bool {
	return t >= f.from && f.tr.At(idx).Op == isa.OpBranch
}
func (f *branchOnlyFeed) NextArrival(idx int64) (ticks.Time, bool) {
	if f.tr.At(idx).Op == isa.OpBranch {
		return f.from, true
	}
	return 0, false
}
func (f *branchOnlyFeed) ConsumeThrough(idx int64) {}

func TestEarlyResolvedBranchFreesIQSlot(t *testing.T) {
	// A serial chain of slow loads, each feeding a mispredicted branch: the
	// branch dispatches into the IQ and parks on the load's wake list, then
	// resolves early from the feed before the load completes.
	insts := make([]isa.Inst, 0, 200)
	taken := false
	for i := 0; i < 100; i++ {
		addr := 0x200000 + uint64(i)*64*1031%(1<<26)
		taken = !taken
		insts = append(insts,
			isa.Inst{Op: isa.OpLoad, PC: 0x40, Dst: 10, Src1: 10, Addr: addr},
			isa.Inst{Op: isa.OpBranch, PC: 0x80, Src1: 10, Taken: taken},
		)
	}
	tr := trace.New("earlyiq", insts)
	cfg := testConfig()
	cfg.IQSize = 4 // small enough that a leaked slot would be visible
	// Results appear at cycle 6 of the 0.5ns test clock: after the first
	// load+branch pair has dispatched (front-end depth 3), before the
	// missing load completes.
	feed := &branchOnlyFeed{tr: tr, from: 300}
	c, err := NewCore(cfg, tr, Options{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() {
		t.Fatalf("core stuck: retired %d of %d (IQ slot leak?)", c.Retired(), tr.Len())
	}
	st := c.Stats()
	if st.EarlyResolved == 0 {
		t.Fatal("no branch resolved early; the test did not exercise the path")
	}
	if c.iqCount != 0 {
		t.Errorf("iqCount = %d after completion, want 0", c.iqCount)
	}
	if c.readyCount != 0 || len(c.wakeQ) != 0 {
		t.Errorf("issue queues not drained: %d ready, %d scheduled", c.readyCount, len(c.wakeQ))
	}
	// The early-resolved branch still retires and counts as a branch.
	if st.Retired != int64(tr.Len()) {
		t.Errorf("retired %d, want %d", st.Retired, tr.Len())
	}
}

// TestEarlyResolveMatchesSingleStepAdvance locks the fast-forward path on
// the same scenario: Advance must produce identical stats to Step.
func TestEarlyResolveMatchesSingleStepAdvance(t *testing.T) {
	insts := make([]isa.Inst, 0, 200)
	taken := false
	for i := 0; i < 100; i++ {
		addr := 0x200000 + uint64(i)*64*1031%(1<<26)
		taken = !taken
		insts = append(insts,
			isa.Inst{Op: isa.OpLoad, PC: 0x40, Dst: 10, Src1: 10, Addr: addr},
			isa.Inst{Op: isa.OpBranch, PC: 0x80, Src1: 10, Taken: taken},
		)
	}
	tr := trace.New("earlyiq", insts)
	run := func(advance bool) Stats {
		c, err := NewCore(testConfig(), tr, Options{Feed: &branchOnlyFeed{tr: tr, from: 300}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1_000_000 && !c.Done(); i++ {
			if advance {
				c.Advance()
			} else {
				c.Step()
			}
		}
		return c.Stats()
	}
	if slow, fast := run(false), run(true); slow != fast {
		t.Errorf("Advance diverges from Step:\nstep:    %+v\nadvance: %+v", slow, fast)
	}
}
