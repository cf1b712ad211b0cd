package contest

import (
	"strings"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/ticks"
	"archcontest/internal/workload"
)

func TestExceptionsSlowExecution(t *testing.T) {
	tr := workload.MustGenerate("gcc", 20000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	plain, err := Run(cfgs, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exc, err := Run(cfgs, tr, Options{ExceptionEvery: 2000, ExceptionHandlerNs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if exc.Time <= plain.Time {
		t.Errorf("exceptions at no cost: %v vs %v", exc.Time, plain.Time)
	}
	// 10 exceptions x (rendezvous + 100ns handler): at least the handler
	// time must appear.
	minExtra := plain.Time.Add(10 * 100 * 100 / 2) // half the handler ticks as slack
	if exc.Time < minExtra {
		t.Errorf("exception cost %v too small", exc.Time-plain.Time)
	}
}

func TestKillReforkCostsMoreThanParallelHandler(t *testing.T) {
	tr := workload.MustGenerate("gcc", 20000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	parallel, err := Run(cfgs, tr, Options{ExceptionEvery: 2000})
	if err != nil {
		t.Fatal(err)
	}
	refork, err := Run(cfgs, tr, Options{ExceptionEvery: 2000, ExceptionKillRefork: true})
	if err != nil {
		t.Fatal(err)
	}
	if refork.Time <= parallel.Time {
		t.Errorf("terminate-and-refork (%v) not slower than the parallelized handler (%v)",
			refork.Time, parallel.Time)
	}
}

func TestExceptionsPreserveCompletion(t *testing.T) {
	tr := workload.MustGenerate("twolf", 10000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	r, err := Run(cfgs, tr, Options{ExceptionEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts != 10000 {
		t.Errorf("retired %d", r.Insts)
	}
	// At an exception boundary both cores must have rendezvoused, so the
	// loser cannot be more than one interval behind at the end.
	loser := 1 - r.Winner
	if r.PerCore[loser].Retired < r.Insts-500-1 {
		t.Errorf("loser retired only %d of %d despite 500-instruction rendezvous", r.PerCore[loser].Retired, r.Insts)
	}
}

func TestReforkWarmupChargesStateTransfer(t *testing.T) {
	tr := workload.MustGenerate("gcc", 20000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	base, err := Run(cfgs, tr, Options{ExceptionEvery: 2000, ExceptionKillRefork: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.StateTransfer != 0 {
		t.Errorf("state transfer charged without a warm-up knob: %v", base.StateTransfer)
	}
	warm, err := Run(cfgs, tr, Options{
		ExceptionEvery: 2000, ExceptionKillRefork: true, ReforkWarmupNs: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 kill-refork barriers, each reforking one non-designated core.
	want := ticks.FromNanoseconds(1000) * 10
	if warm.StateTransfer != want {
		t.Errorf("state transfer %v, want %v", warm.StateTransfer, want)
	}
	if warm.Time <= base.Time {
		t.Errorf("warm-up at no cost: %v vs %v", warm.Time, base.Time)
	}
}

func TestReforkColdPredictorRetrainsFromScratch(t *testing.T) {
	tr := workload.MustGenerate("gcc", 20000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	opts := Options{ExceptionEvery: 2000, ExceptionKillRefork: true}
	base, err := Run(cfgs, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ReforkColdPredictor = true
	cold, err := Run(cfgs, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseMiss := base.PerCore[0].Mispredicts + base.PerCore[1].Mispredicts
	coldMiss := cold.PerCore[0].Mispredicts + cold.PerCore[1].Mispredicts
	if coldMiss <= baseMiss {
		t.Errorf("cold-predictor reforks mispredicted %d times, want more than warm %d",
			coldMiss, baseMiss)
	}
}

func TestReforkColdCachesMissMore(t *testing.T) {
	tr := workload.MustGenerate("mcf", 20000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	opts := Options{ExceptionEvery: 2000, ExceptionKillRefork: true}
	base, err := Run(cfgs, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ReforkColdCaches = true
	cold, err := Run(cfgs, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseMiss := base.PerCore[0].L1D.Misses + base.PerCore[1].L1D.Misses
	coldMiss := cold.PerCore[0].L1D.Misses + cold.PerCore[1].L1D.Misses
	if coldMiss <= baseMiss {
		t.Errorf("cold-cache reforks missed %d times, want more than warm %d", coldMiss, baseMiss)
	}
}

func TestLeadChangeWarmupIsPostHocAccounting(t *testing.T) {
	tr := workload.MustGenerate("bzip", 60000)
	cfgs := []config.CoreConfig{fastCore("fast"), slowBigCore("big")}
	base, err := Run(cfgs, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.LeadChanges == 0 {
		t.Fatal("phase-diverse trace produced no lead changes")
	}
	warm, err := Run(cfgs, tr, Options{LeadChangeWarmupNs: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Pure accounting: the dynamics — and so the lead-change count — must
	// be untouched, and the charge must be exactly per-change.
	if warm.LeadChanges != base.LeadChanges {
		t.Fatalf("lead-change warm-up altered the dynamics: %d vs %d changes",
			warm.LeadChanges, base.LeadChanges)
	}
	charge := ticks.FromNanoseconds(100) * ticks.Duration(base.LeadChanges)
	if warm.StateTransfer != charge {
		t.Errorf("state transfer %v, want %v", warm.StateTransfer, charge)
	}
	if warm.Time != base.Time.Add(charge) {
		t.Errorf("time %v, want %v + %v", warm.Time, base.Time, charge)
	}
}

// TestHostileOptionsRejected: negative durations, a negative store queue
// and a MaxLag above the limit are errors naming the field, from NewSystem
// and Run alike, and no spec is needed to reach them. Most used to panic
// in the engine (a negative duration in ticks.FromNanoseconds, a negative
// store queue in NewStoreQueue), and a MaxLag above 2^62 never finished
// sizing the result bus.
func TestHostileOptionsRejected(t *testing.T) {
	tr := workload.MustGenerate("gcc", 1000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{ExceptionEvery: 100, ExceptionHandlerNs: -1}, "ExceptionHandlerNs"},
		{Options{ExceptionEvery: 100, ExceptionKillRefork: true, ExceptionReforkNs: -1}, "ExceptionReforkNs"},
		{Options{ReforkWarmupNs: -1}, "ReforkWarmupNs"},
		{Options{LeadChangeWarmupNs: -1}, "LeadChangeWarmupNs"},
		{Options{MaxTimeNs: -1}, "MaxTimeNs"},
		{Options{LatencyNs: -1}, "LatencyNs"},
		{Options{StoreQueueCap: -1}, "StoreQueueCap"},
		{Options{MaxLag: MaxLagLimit + 1}, "limit of 1048576"},
		{Options{MaxLag: 1 << 40}, "limit of 1048576"},
		{Options{MaxLag: 1<<62 + 1}, "limit of 1048576"},
	} {
		if _, err := NewSystem(cfgs, tr, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewSystem(%+v): error %v, want one naming %q", c.opts, err, c.want)
		}
		if _, err := Run(cfgs, tr, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%+v): error %v, want one naming %q", c.opts, err, c.want)
		}
	}
	if _, err := NewSystem(cfgs, tr, Options{MaxLag: MaxLagLimit}); err != nil {
		t.Errorf("MaxLag at the limit rejected: %v", err)
	}
}

// TestVerifiedWarmupSchedulerEquivalence locks the bit-identity of the two
// schedulers under the full warm-up model: cold-state reforks land at
// barrier formation, which happens at the same global point of the
// execution in either scheduler.
func TestVerifiedWarmupSchedulerEquivalence(t *testing.T) {
	tr := workload.MustGenerate("gcc", 20000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	opts := Options{
		ExceptionEvery: 2000, ExceptionKillRefork: true,
		ReforkWarmupNs: 750, ReforkColdPredictor: true, ReforkColdCaches: true,
		LeadChangeWarmupNs: 50,
	}
	ref := opts
	ref.SingleStep = true
	a, err := Run(cfgs, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfgs, tr, ref)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Winner != b.Winner || a.LeadChanges != b.LeadChanges ||
		a.StateTransfer != b.StateTransfer {
		t.Fatalf("schedulers diverge under warm-up: %+v vs %+v", a, b)
	}
	for i := range a.PerCore {
		if a.PerCore[i] != b.PerCore[i] {
			t.Errorf("core %d stats diverge: %+v vs %+v", i, a.PerCore[i], b.PerCore[i])
		}
	}
}

func TestExceptionCoordinatorUnit(t *testing.T) {
	tr := workload.MustGenerate("gcc", 1000)
	s, err := NewSystem([]config.CoreConfig{fastCore("a"), slowBigCore("b")}, tr, Options{ExceptionEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	x := s.exc
	if x == nil {
		t.Fatal("coordinator not wired")
	}
	if x.isException(98) || !x.isException(99) {
		t.Error("exception indexing wrong (every 100th instruction -> idx 99)")
	}
	// Non-exception instructions always pass.
	if !x.gate(0, 50, 0) {
		t.Error("non-exception gated")
	}
	// Neither core has retired 99 instructions yet: the first arrival waits.
	if x.gate(0, 99, 1000) {
		t.Error("rendezvous passed before all cores arrived")
	}
}
