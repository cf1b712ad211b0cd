package contest

import (
	"context"
	"strings"
	"testing"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/isa"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

func fastCore(name string) config.CoreConfig {
	return config.CoreConfig{
		Name:          name,
		ClockPeriodNs: 0.25, FrontEndDepth: 6, Width: 4,
		ROBSize: 128, IQSize: 32, LSQSize: 64,
		WakeupLatency: 1, SchedDepth: 2, MemLatencyCycles: 200,
		L1D:       cache.Config{Sets: 64, Assoc: 2, BlockBytes: 64, LatencyCycles: 2},
		L2D:       cache.Config{Sets: 1024, Assoc: 8, BlockBytes: 128, LatencyCycles: 10},
		Predictor: branch.DefaultConfig(),
	}
}

func slowBigCore(name string) config.CoreConfig {
	return config.CoreConfig{
		Name:          name,
		ClockPeriodNs: 0.50, FrontEndDepth: 3, Width: 4,
		ROBSize: 512, IQSize: 64, LSQSize: 128,
		WakeupLatency: 0, SchedDepth: 1, MemLatencyCycles: 110,
		L1D:       cache.Config{Sets: 512, Assoc: 4, BlockBytes: 64, LatencyCycles: 2},
		L2D:       cache.Config{Sets: 4096, Assoc: 8, BlockBytes: 128, LatencyCycles: 12},
		Predictor: branch.DefaultConfig(),
	}
}

// tinyCore cannot keep up with wide cores: 1-wide at a slow clock.
func tinyCore(name string) config.CoreConfig {
	c := fastCore(name)
	c.Width = 1
	c.ClockPeriodNs = 0.50
	c.ROBSize = 16
	c.IQSize = 8
	c.LSQSize = 8
	return c
}

func TestNewSystemRejects(t *testing.T) {
	tr := workload.MustGenerate("gcc", 1000)
	one := []config.CoreConfig{fastCore("a")}
	if _, err := NewSystem(one, tr, Options{}); err == nil {
		t.Error("single core accepted")
	}
	pair := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	if _, err := NewSystem(pair, nil, Options{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewSystem(pair, tr, Options{LatencyNs: 0.001}); err == nil {
		t.Error("sub-tick latency accepted")
	}
	if _, err := NewSystem(pair, tr, Options{MaxLag: -1}); err == nil {
		t.Error("negative MaxLag accepted")
	}
	bad := pair
	bad[0].Width = 0
	if _, err := NewSystem(bad, tr, Options{}); err == nil {
		t.Error("invalid core accepted")
	}
}

// A contest that overruns MaxTimeNs must fail with the "exceeded" error on
// both schedulers rather than run on.
func TestRunContextMaxTime(t *testing.T) {
	tr := workload.MustGenerate("mcf", 8000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b"), tinyCore("c")}
	for _, single := range []bool{false, true} {
		_, err := RunContext(context.Background(), cfgs, tr, Options{MaxTimeNs: 1, SingleStep: single})
		if err == nil {
			t.Errorf("SingleStep=%v: time bound not enforced", single)
		} else if !strings.Contains(err.Error(), "exceeded") {
			t.Errorf("SingleStep=%v: error %v", single, err)
		}
	}
}

func TestIdenticalCoresMatchSingleCore(t *testing.T) {
	// Contesting two identical cores must not be slower than one of them
	// (write-through single-core run for apples-to-apples).
	tr := workload.MustGenerate("gcc", 30000)
	cfg := fastCore("a")
	single := sim.MustRun(cfg, tr, sim.RunOptions{WritePolicy: cache.WriteThrough})
	res, err := Run([]config.CoreConfig{cfg, fastCore("b")}, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.IPT() / single.IPT()
	if ratio < 0.97 {
		t.Errorf("identical-pair contesting IPT ratio %.3f, want >= 0.97", ratio)
	}
}

func TestContestingAtLeastBestSingle(t *testing.T) {
	// The headline property: a contested pair performs at least as well as
	// the better core alone (minus a small transient tolerance).
	for _, bench := range []string{"twolf", "gcc", "bzip"} {
		tr := workload.MustGenerate(bench, 40000)
		a, b := fastCore("fast"), slowBigCore("big")
		sa := sim.MustRun(a, tr, sim.RunOptions{WritePolicy: cache.WriteThrough})
		sb := sim.MustRun(b, tr, sim.RunOptions{WritePolicy: cache.WriteThrough})
		best := sa.IPT()
		if sb.IPT() > best {
			best = sb.IPT()
		}
		res, err := Run([]config.CoreConfig{a, b}, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.IPT() < 0.95*best {
			t.Errorf("%s: contest IPT %.3f below best single %.3f", bench, res.IPT(), best)
		}
	}
}

func TestInjectionHappens(t *testing.T) {
	tr := workload.MustGenerate("twolf", 30000)
	res, err := Run([]config.CoreConfig{fastCore("fast"), slowBigCore("big")}, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	injected := res.PerCore[0].Injected + res.PerCore[1].Injected
	if injected == 0 {
		t.Error("no results were ever injected")
	}
}

func TestLeadChangesOnPhaseDiverseTrace(t *testing.T) {
	tr := workload.MustGenerate("bzip", 60000)
	res, err := Run([]config.CoreConfig{fastCore("fast"), slowBigCore("big")}, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeadChanges == 0 {
		t.Error("lead never changed on a phase-diverse trace")
	}
}

func TestSaturatedLagger(t *testing.T) {
	tr := workload.MustGenerate("crafty", 30000)
	fast, tiny := fastCore("fast"), tinyCore("tiny")
	res, err := Run([]config.CoreConfig{fast, tiny}, tr, Options{MaxLag: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated[1] {
		t.Error("1-wide 2GHz core should saturate behind a 4-wide 4GHz core")
	}
	if res.Saturated[0] {
		t.Error("the leader should not be saturated")
	}
	if res.Winner != 0 {
		t.Errorf("winner %d, want the fast core", res.Winner)
	}
	// Saturation must not cost the leader much versus running alone.
	single := sim.MustRun(fast, tr, sim.RunOptions{WritePolicy: cache.WriteThrough})
	if res.IPT() < 0.9*single.IPT() {
		t.Errorf("saturated lagger dragged the leader from %.3f to %.3f IPT", single.IPT(), res.IPT())
	}
}

func TestDeterminism(t *testing.T) {
	tr := workload.MustGenerate("vpr", 20000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b")}
	r1, err := Run(cfgs, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfgs, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.Winner != r2.Winner || r1.LeadChanges != r2.LeadChanges {
		t.Errorf("contest runs differ: %+v vs %+v", r1.Time, r2.Time)
	}
}

func TestLatencyHurts(t *testing.T) {
	tr := workload.MustGenerate("twolf", 40000)
	cfgs := []config.CoreConfig{fastCore("fast"), slowBigCore("big")}
	fastLat, err := Run(cfgs, tr, Options{LatencyNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	slowLat, err := Run(cfgs, tr, Options{LatencyNs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if slowLat.IPT() > fastLat.IPT()*1.02 {
		t.Errorf("100ns latency IPT %.3f should not beat 1ns IPT %.3f", slowLat.IPT(), fastLat.IPT())
	}
}

func TestRegionLogging(t *testing.T) {
	tr := workload.MustGenerate("gcc", 10000)
	res, err := Run([]config.CoreConfig{fastCore("a"), slowBigCore("b")}, tr, Options{RegionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 10000/20 {
		t.Errorf("%d regions, want 500", len(res.Regions))
	}
}

func TestStoreQueueMergesEachStoreOnce(t *testing.T) {
	tr := workload.MustGenerate("twolf", 20000)
	s, err := NewSystem([]config.CoreConfig{fastCore("a"), slowBigCore("b")}, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var merged []int64
	s.queue.Merged = func(idx int64, addr uint64) { merged = append(merged, idx) }
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Every merged index must be a store, unique, and in program order.
	seen := map[int64]bool{}
	last := int64(-1)
	for _, idx := range merged {
		if tr.At(idx).Op != isa.OpStore {
			t.Fatalf("merged non-store %d", idx)
		}
		if seen[idx] {
			t.Fatalf("store %d merged twice", idx)
		}
		seen[idx] = true
		if idx <= last {
			t.Fatalf("merge order violated: %d after %d", idx, last)
		}
		last = idx
	}
	if len(merged) == 0 {
		t.Fatal("no stores merged")
	}
	// The winner retired every store; each must have merged (the loser's
	// pending instances may remain only for stores the winner retired but
	// the loser did not — those merge on the winner's instance alone only
	// after the loser is disabled, so allow pending leftovers).
	if int64(len(merged)) > countStores(tr) {
		t.Fatalf("merged %d stores, trace has %d", len(merged), countStores(tr))
	}
}

func countStores(tr *trace.Trace) int64 {
	var n int64
	for i := int64(0); i < int64(tr.Len()); i++ {
		if tr.At(i).Op == isa.OpStore {
			n++
		}
	}
	return n
}

func TestStoreQueueUnit(t *testing.T) {
	q := NewStoreQueue(2, 2)
	var merged []int64
	q.Merged = func(idx int64, addr uint64) { merged = append(merged, idx) }

	if !q.CanAccept(0) {
		t.Fatal("empty queue refuses")
	}
	q.Performed(0, 10, 0x100)
	q.Performed(0, 20, 0x200)
	if q.Pending() != 2 {
		t.Fatalf("pending %d", q.Pending())
	}
	// Full: core 0's next store would need a new entry.
	if q.CanAccept(0) {
		t.Error("full queue accepted a new entry")
	}
	// Core 1 is behind: its next store (10) has an entry.
	if !q.CanAccept(1) {
		t.Error("full queue refused a matching instance")
	}
	q.Performed(1, 10, 0x100)
	if len(merged) != 1 || merged[0] != 10 {
		t.Fatalf("merged %v, want [10]", merged)
	}
	if q.Pending() != 1 {
		t.Fatalf("pending %d after merge", q.Pending())
	}
	// Disabling core 1 releases the rest.
	q.DisableCore(1)
	if len(merged) != 2 || merged[1] != 20 {
		t.Fatalf("merged %v after disable, want [10 20]", merged)
	}
	if q.MergedCount() != 2 {
		t.Fatalf("merged count %d", q.MergedCount())
	}
	// Disabled core instances are ignored.
	q.Performed(1, 30, 0x300)
	if q.Pending() != 0 {
		t.Error("disabled core allocated an entry")
	}
}

func TestStoreQueuePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero cores":    func() { NewStoreQueue(0, 4) },
		"many cores":    func() { NewStoreQueue(65, 4) },
		"zero capacity": func() { NewStoreQueue(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestThreeWayContesting(t *testing.T) {
	tr := workload.MustGenerate("gcc", 30000)
	cfgs := []config.CoreConfig{fastCore("a"), slowBigCore("b"), fastCore("c")}
	cfgs[2].ClockPeriodNs = 0.33
	cfgs[2].Name = "c"
	res, err := Run(cfgs, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 30000 {
		t.Errorf("insts %d", res.Insts)
	}
	best := 0.0
	for _, cfg := range cfgs {
		r := sim.MustRun(cfg, tr, sim.RunOptions{WritePolicy: cache.WriteThrough})
		if r.IPT() > best {
			best = r.IPT()
		}
	}
	if res.IPT() < 0.95*best {
		t.Errorf("3-way contest IPT %.3f below best single %.3f", res.IPT(), best)
	}
}
