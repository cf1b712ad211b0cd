package archcontest

// The third-party component walkthrough as a test: a predictor, a
// replacement policy, and a prefetcher implemented purely against the
// public SPI — registered by name, selected from plain configurations, and
// driven through golden equivalence, the full verification subsystem, and
// the observability recorder. Nothing here imports an internal package
// except the obs recorder used to assert the observer leg captured events.

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"archcontest/internal/obs"
)

// toyLocal is a local-history two-level predictor: a per-PC history table
// hashed into a table of saturating counters. It exists to prove a
// predictor family the engine has never heard of runs through the interface
// fallback end to end.
type toyLocal struct {
	hist [512]uint16
	pht  [4096]int8
	mask uint16
}

func newToyLocal(cfg BranchConfig) (BranchPredictor, error) {
	bits := 10
	for _, kv := range strings.Split(cfg.Params, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k != "hist" {
			return nil, fmt.Errorf("toy-local: bad param %q", kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 16 {
			return nil, fmt.Errorf("toy-local: bad history length %q", v)
		}
		bits = n
	}
	return &toyLocal{mask: uint16(1<<bits - 1)}, nil
}

func (p *toyLocal) idx(pc uint64) (uint64, uint64) {
	h := pc >> 2 & 511
	return h, (uint64(p.hist[h]) ^ pc>>2) & 4095
}

func (p *toyLocal) Predict(pc uint64) bool {
	_, j := p.idx(pc)
	return p.pht[j] >= 0
}

func (p *toyLocal) Update(pc uint64, taken bool) {
	h, j := p.idx(pc)
	if taken {
		if p.pht[j] < 1 {
			p.pht[j]++
		}
	} else {
		if p.pht[j] > -2 {
			p.pht[j]--
		}
	}
	bit := uint16(0)
	if taken {
		bit = 1
	}
	p.hist[h] = (p.hist[h]<<1 | bit) & p.mask
}

func (p *toyLocal) Reset() {
	mask := p.mask
	*p = toyLocal{mask: mask}
}

// toyFIFO evicts ways in insertion order, per set — the simplest policy
// that is not LRU.
type toyFIFO struct {
	assoc int
	next  []uint8
}

func newToyFIFO(sets, assoc int, params string) (CacheReplacer, error) {
	if params != "" {
		return nil, fmt.Errorf("toy-fifo takes no params, got %q", params)
	}
	return &toyFIFO{assoc: assoc, next: make([]uint8, sets)}, nil
}

func (f *toyFIFO) Touch(set, way int)  {}
func (f *toyFIFO) Insert(set, way int) {}
func (f *toyFIFO) Victim(set int) int {
	v := int(f.next[set])
	f.next[set] = uint8((v + 1) % f.assoc)
	return v
}
func (f *toyFIFO) Reset() {
	for i := range f.next {
		f.next[i] = 0
	}
}

// toyTwoAhead prefetches the next two sequential blocks on every miss.
type toyTwoAhead struct{ block uint64 }

func newToyTwoAhead(blockBytes int, params string) (CachePrefetcher, error) {
	if params != "" {
		return nil, fmt.Errorf("toy-twoahead takes no params, got %q", params)
	}
	return &toyTwoAhead{block: uint64(blockBytes)}, nil
}

func (t *toyTwoAhead) OnAccess(addr uint64, miss bool, buf []uint64) []uint64 {
	if miss {
		buf = append(buf, addr+t.block, addr+2*t.block)
	}
	return buf
}
func (t *toyTwoAhead) Reset() {}

// registerToyComponents registers the three components once per process;
// the registries are global, so every test shares one registration.
var registerToyComponents = sync.OnceValue(func() error {
	if err := RegisterPredictor("toy-local", newToyLocal); err != nil {
		return err
	}
	if err := RegisterReplacer("toy-fifo", newToyFIFO); err != nil {
		return err
	}
	return RegisterPrefetcher("toy-twoahead", newToyTwoAhead)
})

// toyCore is the bench's palette core re-equipped with all three toy
// components through nothing but public configuration.
func toyCore(bench string) CoreConfig {
	cfg := MustPaletteCore(bench)
	cfg.Name = bench + "-toy"
	cfg.Predictor = BranchConfig{Kind: "toy-local", Params: "hist=12"}
	cfg.L1D.Replacement = "toy-fifo"
	cfg.L2D.Replacement = "toy-fifo"
	cfg.Prefetch = PrefetchConfig{Name: "toy-twoahead"}
	return cfg
}

// TestThirdPartyComponentsVerified is the SPI acceptance leg: components
// registered only through the public API survive conformance, golden
// slow/fast equivalence (the interface-fallback dispatch against the
// event-driven engine), a fully verified contested run against a default
// core, and an observer-attached contested run that records events.
func TestThirdPartyComponentsVerified(t *testing.T) {
	if err := registerToyComponents(); err != nil {
		t.Fatal(err)
	}
	if got := RegisteredPredictors(); !contains(got, "toy-local") {
		t.Fatalf("toy-local missing from %v", got)
	}
	if got := ReplacerNames(); !contains(got, "toy-fifo") {
		t.Fatalf("toy-fifo missing from %v", got)
	}
	if got := PrefetcherNames(); !contains(got, "toy-twoahead") {
		t.Fatalf("toy-twoahead missing from %v", got)
	}
	if err := PredictorConformance(BranchConfig{Kind: "toy-local", Params: "hist=12"}); err != nil {
		t.Fatalf("conformance: %v", err)
	}

	bench := "gcc"
	tr := MustGenerateTrace(bench, goldenInsts)
	cfg := toyCore(bench)

	// Golden: the registered components must be bit-identical between the
	// single-step reference and the event-driven fast path — this is the
	// interface-fallback dispatch leg of the golden grid.
	slow, err := Run(cfg, tr, RunOptions{LogRegions: true, SingleStep: true})
	if err != nil {
		t.Fatalf("single-step: %v", err)
	}
	fast, err := Run(cfg, tr, RunOptions{LogRegions: true})
	if err != nil {
		t.Fatalf("event-driven: %v", err)
	}
	if !reflect.DeepEqual(slow, fast) {
		t.Errorf("toy components: event-driven result diverges from single-step\nslow: %+v\nfast: %+v", slow, fast)
	}

	// Contested against the unmodified default core, fully verified.
	cfgs := []CoreConfig{MustPaletteCore(bench), cfg}
	res, err := ContestRunVerifiedWith(cfgs, tr, ContestOptions{}, VerifyOptions{ScanEvery: verifyScanEvery})
	if err != nil {
		t.Fatalf("verified contest: %v", err)
	}
	if res.Insts != int64(tr.Len()) {
		t.Fatalf("verified contest: retired %d of %d", res.Insts, tr.Len())
	}

	// And with the observability recorder attached.
	rec := obs.NewRecorder(obs.Options{})
	ores, err := ContestRun(cfgs, tr, ContestOptions{Observer: rec})
	if err != nil {
		t.Fatalf("observed contest: %v", err)
	}
	rec.FinishContest(ores)
	if len(rec.Events()) == 0 {
		t.Fatal("observed contest recorded no events")
	}
}

// TestThirdPartyComponentsInLeaderboard locks that registered components
// enter the championship cross-product automatically: the combo list must
// include the toy predictor, replacement policy, and prefetcher.
func TestThirdPartyComponentsInLeaderboard(t *testing.T) {
	if err := registerToyComponents(); err != nil {
		t.Fatal(err)
	}
	var preds, repls, prefs bool
	for _, c := range LeaderboardCombos() {
		preds = preds || c.Predictor == "toy-local"
		repls = repls || c.Replacement == "toy-fifo"
		prefs = prefs || c.Prefetcher == "toy-twoahead"
	}
	if !preds || !repls || !prefs {
		t.Fatalf("toy components missing from the cross-product (pred=%v repl=%v pref=%v)", preds, repls, prefs)
	}
}

// factoryCalls counts the calls of the counting components' factories.
var factoryCalls struct{ pred, repl, pref atomic.Int64 }

// registerCountingComponents registers the toy components again under
// names whose factories count their calls, once per process.
var registerCountingComponents = sync.OnceValue(func() error {
	if err := RegisterPredictor("count-local", func(cfg BranchConfig) (BranchPredictor, error) {
		factoryCalls.pred.Add(1)
		return newToyLocal(cfg)
	}); err != nil {
		return err
	}
	if err := RegisterReplacer("count-fifo", func(sets, assoc int, params string) (CacheReplacer, error) {
		factoryCalls.repl.Add(1)
		return newToyFIFO(sets, assoc, params)
	}); err != nil {
		return err
	}
	return RegisterPrefetcher("count-twoahead", func(blockBytes int, params string) (CachePrefetcher, error) {
		factoryCalls.pref.Add(1)
		return newToyTwoAhead(blockBytes, params)
	})
})

// TestRegisteredComponentsBuiltOnce: a run on a core whose predictor, both
// replacement policies and prefetcher are registered components builds
// each instance it uses once, 1, 2 and 1 factory calls, and so does each
// contestant of a contest.
func TestRegisteredComponentsBuiltOnce(t *testing.T) {
	if err := registerCountingComponents(); err != nil {
		t.Fatal(err)
	}
	cfg := MustPaletteCore("gcc")
	cfg.Name = "gcc-counted"
	cfg.Predictor = BranchConfig{Kind: "count-local"}
	cfg.L1D.Replacement = "count-fifo"
	cfg.L2D.Replacement = "count-fifo"
	cfg.Prefetch = PrefetchConfig{Name: "count-twoahead"}
	tr := MustGenerateTrace("gcc", 2000)
	check := func(what string, cores int64) {
		t.Helper()
		got := [3]int64{factoryCalls.pred.Swap(0), factoryCalls.repl.Swap(0), factoryCalls.pref.Swap(0)}
		if want := [3]int64{cores, 2 * cores, cores}; got != want {
			t.Errorf("%s: predictor, replacer and prefetcher factories called %v times, want %v", what, got, want)
		}
	}
	check("registration", 0)
	if _, err := Run(cfg, tr, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	check("run", 1)
	if _, err := ContestRun([]CoreConfig{MustPaletteCore("gcc"), cfg, cfg}, tr, ContestOptions{}); err != nil {
		t.Fatal(err)
	}
	check("contest", 2)
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
