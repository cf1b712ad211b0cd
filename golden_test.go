package archcontest

// Golden-equivalence tests for the event-driven engine: the fast-forward
// path (dead-cycle skipping, event-scheduled contests) must reproduce the
// reference single-cycle/single-step semantics bit for bit — every Stats
// counter, FinishTime, RegionTimes, winner, lead changes, and saturation
// flags, across a grid of palette cores × workloads, stand-alone and 2-,
// 3- and 4-way contested, under store-queue pressure, saturation, and
// exception rendezvous. Both paths share the issue scheduler, so
// TestGoldenResultPin then pins the grid's results themselves: a change to
// shared code, such as the scheduler's issue order or wake-up timing,
// cannot move them unnoticed.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/sim"
)

const goldenInsts = 20_000

// goldenPinVersion and goldenPinSHA256 pin the golden grid's results under
// the engine semantics sim.EngineVersion names: the SHA-256 over the name
// and JSON encoding of every golden single-core and contested result, in
// grid order. Bump sim.EngineVersion whenever an engine change moves a
// result bit, then re-pin both constants.
const (
	goldenPinVersion = "engine-v2"
	goldenPinSHA256  = "0b8f03dc2be5ca47ce7bcb159745fd3e7d0a2c1dc5f437262e483e6233dcd9fc"
)

// goldenContest is one contested leg of the grid: its palette cores and the
// option variant every bench runs under.
type goldenContest struct {
	cores []string
	opts  ContestOptions
}

// goldenContests are the contested legs shared by the golden, recorder and
// verification suites. Each 2-way pair runs under a different option
// variant, so the grid covers high latency, exception rendezvous (both
// handler styles), saturated laggers, and store-queue backpressure. The 3-
// and 4-way legs take the result bus's multi-sender paths under default
// options, exceptions, and a MaxLag small enough that a lagger saturates.
var goldenContests = []goldenContest{
	{[]string{"gcc", "mcf"}, ContestOptions{}},
	{[]string{"bzip", "crafty"}, ContestOptions{LatencyNs: 5}},
	{[]string{"twolf", "vpr"}, ContestOptions{ExceptionEvery: 512}},
	{[]string{"gzip", "perl"}, ContestOptions{MaxLag: 64}},
	{[]string{"gap", "vortex"}, ContestOptions{ExceptionEvery: 768, ExceptionKillRefork: true}},
	{[]string{"mcf", "parser"}, ContestOptions{StoreQueueCap: 8}},
	{[]string{"gcc", "twolf", "vpr"}, ContestOptions{}},
	{[]string{"gcc", "twolf", "vpr"}, ContestOptions{ExceptionEvery: 512}},
	{[]string{"gzip", "perl", "mcf"}, ContestOptions{MaxLag: 64}},
	{[]string{"gcc", "mcf", "bzip", "crafty"}, ContestOptions{}},
	{[]string{"gcc", "mcf", "bzip", "crafty"}, ContestOptions{ExceptionEvery: 768}},
	{[]string{"gcc", "mcf", "bzip", "crafty"}, ContestOptions{MaxLag: 64}},
}

// goldenContestBenches are the traces every goldenContests leg runs.
var goldenContestBenches = []string{"gcc", "mcf", "twolf", "gzip"}

func (g goldenContest) configs() []CoreConfig {
	cfgs := make([]CoreConfig, len(g.cores))
	for i, name := range g.cores {
		cfgs[i] = MustPaletteCore(name)
	}
	return cfgs
}

func (g goldenContest) name(bench string) string {
	return strings.Join(g.cores, " vs ") + " on " + bench
}

// goldenRun is one run of the grid; run executes it under the single-step
// reference (singleStep) or the event-driven engine.
type goldenRun struct {
	name string
	run  func(singleStep bool) (any, error)
}

func singleGolden(cfg CoreConfig, tr *Trace) goldenRun {
	return goldenRun{tr.Name() + " on " + cfg.Name, func(singleStep bool) (any, error) {
		return Run(cfg, tr, RunOptions{LogRegions: true, SingleStep: singleStep})
	}}
}

func contestGolden(name string, cfgs []CoreConfig, tr *Trace, opts ContestOptions) goldenRun {
	return goldenRun{name, func(singleStep bool) (any, error) {
		o := opts
		o.RegionSize = 20
		o.SingleStep = singleStep
		return ContestRun(cfgs, tr, o)
	}}
}

// checkGolden runs each case under both engines and requires identical
// results.
func checkGolden(t *testing.T, runs []goldenRun) {
	t.Helper()
	for _, r := range runs {
		slow, err := r.run(true)
		if err != nil {
			t.Fatalf("%s (single-step): %v", r.name, err)
		}
		fast, err := r.run(false)
		if err != nil {
			t.Fatalf("%s (event-driven): %v", r.name, err)
		}
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("%s: event-driven result diverges from single-step\nslow: %+v\nfast: %+v", r.name, slow, fast)
		}
	}
}

func goldenSingleCore() []goldenRun {
	var runs []goldenRun
	for _, b := range []string{"gcc", "mcf", "bzip", "crafty", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, cn := range []string{"bzip", "crafty", "gap", "gcc", "gzip", "mcf", "twolf", "vpr"} {
			runs = append(runs, singleGolden(MustPaletteCore(cn), tr))
		}
	}
	return runs
}

func goldenContested() []goldenRun {
	var runs []goldenRun
	for _, g := range goldenContests {
		cfgs := g.configs()
		for _, b := range goldenContestBenches {
			runs = append(runs, contestGolden(g.name(b), cfgs, MustGenerateTrace(b, goldenInsts), g.opts))
		}
	}
	return runs
}

// goldenPredictors are the non-default predictor variants of the golden
// grid: the palette is all-gshare, so without these legs bimodal and TAGE
// had no golden coverage at all.
var goldenPredictors = []struct {
	name string
	cfg  branch.Config
}{
	{"bimodal", branch.Config{Kind: "bimodal", LogSize: 12}},
	{"tage", branch.DefaultTAGEConfig()},
}

func goldenPredictorPalette() []goldenRun {
	var runs []goldenRun
	for _, b := range []string{"gcc", "twolf", "crafty"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, p := range goldenPredictors {
			cfg := MustPaletteCore(b)
			cfg.Name = b + "-" + p.name
			cfg.Predictor = p.cfg
			runs = append(runs, singleGolden(cfg, tr))
		}
	}
	return runs
}

// goldenComponents are the non-default cache-component variants of the
// golden grid: the palette is all-LRU with no prefetching, so without these
// legs the generic replacer path and the prefetch fill timing had no golden
// coverage. Each entry swaps the replacement policy on both cache levels
// and/or attaches a prefetcher to the hierarchy.
var goldenComponents = []struct {
	name, repl, pref string
}{
	{"srrip", "srrip", ""},
	{"random", "random", ""},
	{"nextline", "", "nextline"},
	{"stride", "", "stride"},
	{"srrip-stride", "srrip", "stride"},
}

// componentCore equips the bench's own palette core with the named
// replacement policy (both levels) and prefetcher.
func componentCore(bench, name, repl, pref string) CoreConfig {
	cfg := MustPaletteCore(bench)
	cfg.Name = bench + "-" + name
	cfg.L1D.Replacement = repl
	cfg.L2D.Replacement = repl
	cfg.Prefetch = cache.PrefetchConfig{Name: pref}
	return cfg
}

func goldenComponentPalette() []goldenRun {
	var runs []goldenRun
	for _, b := range []string{"gcc", "mcf", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, c := range goldenComponents {
			runs = append(runs, singleGolden(componentCore(b, c.name, c.repl, c.pref), tr))
		}
	}
	return runs
}

// goldenComponentContested contests a component-equipped core against the
// unmodified default core, so the generic replacer and prefetch paths are
// also locked under broadcast/inject traffic and lead changes.
func goldenComponentContested() []goldenRun {
	legs := []struct {
		name, repl, pref string
		opts             ContestOptions
	}{
		{"srrip-stride", "srrip", "stride", ContestOptions{}},
		{"random-nextline", "random", "nextline", ContestOptions{ExceptionEvery: 640, ExceptionKillRefork: true, ReforkWarmupNs: 250, ReforkColdCaches: true}},
	}
	var runs []goldenRun
	for _, b := range []string{"gcc", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, leg := range legs {
			cfgs := []CoreConfig{MustPaletteCore(b), componentCore(b, leg.name, leg.repl, leg.pref)}
			runs = append(runs, contestGolden(b+" "+leg.name, cfgs, tr, leg.opts))
		}
	}
	return runs
}

// goldenWarmupContested covers the state-transfer model in the contested
// golden grid: gshare vs TAGE on the same structural core under kill-refork
// with warm-up charges, cold-state reforks, and the lead-change accounting
// — the paths the base contested grid never takes.
func goldenWarmupContested() []goldenRun {
	variants := []struct {
		name string
		opts ContestOptions
	}{
		{"warmup", ContestOptions{ExceptionEvery: 640, ExceptionKillRefork: true, ReforkWarmupNs: 250}},
		{"cold", ContestOptions{ExceptionEvery: 640, ExceptionKillRefork: true,
			ReforkWarmupNs: 250, ReforkColdPredictor: true, ReforkColdCaches: true,
			LeadChangeWarmupNs: 25}},
	}
	var runs []goldenRun
	for _, b := range []string{"gcc", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		cfgG := MustPaletteCore(b)
		cfgT := cfgG
		cfgT.Name = b + "-tage"
		cfgT.Predictor = branch.DefaultTAGEConfig()
		for _, v := range variants {
			runs = append(runs, contestGolden(b+" "+v.name, []CoreConfig{cfgG, cfgT}, tr, v.opts))
		}
	}
	return runs
}

func TestGoldenEquivalenceSingleCore(t *testing.T) { checkGolden(t, goldenSingleCore()) }

func TestGoldenEquivalenceContested(t *testing.T) { checkGolden(t, goldenContested()) }

func TestGoldenEquivalencePredictorPalette(t *testing.T) { checkGolden(t, goldenPredictorPalette()) }

func TestGoldenEquivalenceComponentPalette(t *testing.T) { checkGolden(t, goldenComponentPalette()) }

func TestGoldenEquivalenceComponentContested(t *testing.T) {
	checkGolden(t, goldenComponentContested())
}

func TestGoldenEquivalenceWarmupContested(t *testing.T) { checkGolden(t, goldenWarmupContested()) }

// TestGoldenContestedSaturates keeps the MaxLag legs honest: each must
// saturate a lagger on at least one bench, or the saturation paths of the
// result bus would go untested.
func TestGoldenContestedSaturates(t *testing.T) {
	for _, g := range goldenContests {
		if g.opts.MaxLag == 0 {
			continue
		}
		saturated := false
		for _, b := range goldenContestBenches {
			res, err := ContestRun(g.configs(), MustGenerateTrace(b, goldenInsts), g.opts)
			if err != nil {
				t.Fatalf("%s: %v", g.name(b), err)
			}
			for _, s := range res.Saturated {
				saturated = saturated || s
			}
		}
		if !saturated {
			t.Errorf("%v with MaxLag %d saturates no lagger on %v", g.cores, g.opts.MaxLag, goldenContestBenches)
		}
	}
}

// TestGoldenResultPin hashes every golden result, single-core and
// contested, and compares the digest with the one pinned for the current
// sim.EngineVersion.
func TestGoldenResultPin(t *testing.T) {
	h := sha256.New()
	for _, runs := range [][]goldenRun{
		goldenSingleCore(), goldenContested(), goldenPredictorPalette(),
		goldenComponentPalette(), goldenComponentContested(), goldenWarmupContested(),
	} {
		for _, r := range runs {
			res, err := r.run(false)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			h.Write([]byte(r.name))
			h.Write(data)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if sim.EngineVersion != goldenPinVersion {
		t.Fatalf("the pin is for %s, the engine is %s: re-pin goldenPinSHA256 to %s", goldenPinVersion, sim.EngineVersion, got)
	}
	if got != goldenPinSHA256 {
		t.Fatalf("engine semantics changed: bump sim.EngineVersion and re-pin (results SHA-256 %s, pinned %s)", got, goldenPinSHA256)
	}
}
