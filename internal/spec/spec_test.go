package spec

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/explore"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
)

const testInsts = 10_000

// roundTrip encodes sp to JSON, strictly re-parses it, and returns both
// outcomes: the original spec's and the decoded spec's, executed with no
// cache so the second execution really re-simulates.
func roundTrip(t *testing.T, sp Spec) (*Outcome, *Outcome) {
	t.Helper()
	out1, err := Execute(context.Background(), sp, NewEnv(nil), Hooks{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sp2, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parse %s: %v", data, err)
	}
	out2, err := Execute(context.Background(), sp2, NewEnv(nil), Hooks{})
	if err != nil {
		t.Fatalf("re-execute: %v", err)
	}
	return out1, out2
}

// TestSpecRoundTripGoldenGridSingles: every single-core golden-grid
// configuration survives encode -> decode -> re-execute bit-identically.
func TestSpecRoundTripGoldenGridSingles(t *testing.T) {
	benches := []string{"gcc", "mcf", "bzip", "crafty", "twolf"}
	cores := []string{"bzip", "crafty", "gap", "gcc", "gzip", "mcf", "twolf", "vpr"}
	for _, b := range benches {
		for _, c := range cores {
			sp := Spec{Kind: KindRun, Bench: b, N: testInsts, Cores: []string{c}}
			out1, out2 := roundTrip(t, sp)
			if !reflect.DeepEqual(out1.Run, out2.Run) {
				t.Errorf("%s on %s: decoded spec re-executes differently\n%+v\n%+v", b, c, out1.Run, out2.Run)
			}
		}
	}
}

// TestSpecRoundTripGoldenGridContested: the contested golden grid — six
// option variants (latency, exception rendezvous both styles, lag bound,
// store-queue pressure) across four benchmarks — also round-trips.
func TestSpecRoundTripGoldenGridContested(t *testing.T) {
	pairs := []struct {
		a, b string
		opts contest.Options
	}{
		{"gcc", "mcf", contest.Options{}},
		{"bzip", "crafty", contest.Options{LatencyNs: 5}},
		{"twolf", "vpr", contest.Options{ExceptionEvery: 512}},
		{"gzip", "perl", contest.Options{MaxLag: 64}},
		{"gap", "vortex", contest.Options{ExceptionEvery: 768, ExceptionKillRefork: true}},
		{"mcf", "parser", contest.Options{StoreQueueCap: 8}},
	}
	benches := []string{"gcc", "mcf", "twolf", "gzip"}
	for _, p := range pairs {
		opts := p.opts
		opts.RegionSize = 20
		for _, b := range benches {
			sp := Spec{Kind: KindContest, Bench: b, N: testInsts,
				Cores: []string{p.a, p.b}, Contest: &opts}
			out1, out2 := roundTrip(t, sp)
			if !reflect.DeepEqual(out1.Contest, out2.Contest) {
				t.Errorf("%s vs %s on %s: decoded spec re-executes differently\n%+v\n%+v",
					p.a, p.b, b, out1.Contest, out2.Contest)
			}
		}
	}
}

// TestSpecRoundTripCustomCore: an explicit custom configuration (not a
// palette name) survives the JSON round trip too.
func TestSpecRoundTripCustomCore(t *testing.T) {
	custom := config.MustPaletteCore("gcc")
	custom.Name = "tweaked"
	custom.ROBSize = 96
	sp := Spec{Kind: KindRun, Bench: "gcc", N: testInsts, Custom: []config.CoreConfig{custom}}
	out1, out2 := roundTrip(t, sp)
	if !reflect.DeepEqual(out1.Run, out2.Run) {
		t.Errorf("custom core spec re-executes differently\n%+v\n%+v", out1.Run, out2.Run)
	}
	if out1.Run.Core != "tweaked" {
		t.Errorf("ran on %q, want the custom core", out1.Run.Core)
	}
}

func TestSpecInferKind(t *testing.T) {
	cases := []struct {
		sp   Spec
		want string
	}{
		{Spec{Bench: "gcc"}, KindRun},
		{Spec{Bench: "gcc", Cores: []string{"gcc", "mcf"}}, KindContest},
		{Spec{Bench: "gcc", Contest: &contest.Options{}}, KindContest},
		{Spec{Experiment: "appendixA"}, KindExperiment},
		{Spec{Bench: "gcc", Explore: &ExploreSpec{}}, KindExplore},
	}
	for _, c := range cases {
		c.sp.Normalize()
		if c.sp.Kind != c.want {
			t.Errorf("inferred kind %q, want %q (%+v)", c.sp.Kind, c.want, c.sp)
		}
	}
}

// hostileSpecs are shapes that parse and, without admission limits, would
// make a node allocate until it dies: a cache level of 2^40 lines, an
// explore window of 10^8 candidates, nine custom cores whose predictors
// Validate would build before counting them, and an 8-core contest at
// n = 10^8 logging every retirement (800 MB of region log per core).
func hostileSpecs() map[string]string {
	huge := config.MustPaletteCore("gcc")
	huge.Name = "huge"
	huge.L1D.Sets, huge.L1D.Assoc = 1<<30, 1<<10
	hugeJSON, err := json.Marshal(huge)
	if err != nil {
		panic(err)
	}
	nine := strings.Repeat(`{"Name":"bad","Width":0},`, 9)
	return map[string]string{
		"cache": `{"kind":"run","bench":"gcc","custom":[` + string(hugeJSON) + `]}`,
		"explore": `{"kind":"explore","bench":"gcc","n":1000,` +
			`"explore":{"steps":100000000,"lookahead":100000000}}`,
		"cores": `{"kind":"contest","bench":"gcc","custom":[` + nine[:len(nine)-1] + `]}`,
		// Contest options that panicked in the engine (negative durations)
		// or never finished sizing the result bus (MaxLag above 2^62).
		"handler": contestSpec(`"ExceptionEvery":100,"ExceptionHandlerNs":-1`),
		"refork":  contestSpec(`"ExceptionEvery":100,"ExceptionKillRefork":true,"ExceptionReforkNs":-1`),
		"maxtime": contestSpec(`"MaxTimeNs":-1`),
		"maxlag":  contestSpec(`"MaxLag":4611686018427387905`),
		"region": `{"kind":"contest","bench":"gcc","n":100000000,` +
			`"cores":["gcc","mcf","gzip","vpr","twolf","bzip","crafty","gap"],"contest":{"RegionSize":1}}`,
	}
}

// customSpec returns a run spec of one custom core: the gcc palette core
// with mut applied.
func customSpec(mut func(*config.CoreConfig)) string {
	c := config.MustPaletteCore("gcc")
	c.Name = "custom"
	mut(&c)
	b, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	return `{"kind":"run","bench":"gcc","custom":[` + string(b) + `]}`
}

// contestSpec returns a gcc/mcf contest spec with the given contest options.
func contestSpec(opts string) string {
	return `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"contest":{` + opts + `}}`
}

// TestSpecInvalid: malformed scenarios are descriptive errors, never
// panics deep inside the engines. No case executes anything.
func TestSpecInvalid(t *testing.T) {
	hostile := hostileSpecs()
	cases := []struct {
		name    string
		json    string
		wantErr string
	}{
		{"unknown field", `{"kind":"run","bench":"gcc","frobnicate":1}`, "frobnicate"},
		{"trailing data", `{"kind":"run","bench":"gcc"} {"more":1}`, "trailing"},
		{"unknown kind", `{"kind":"dance","bench":"gcc"}`, "unknown kind"},
		{"unknown bench", `{"kind":"run","bench":"doom"}`, "doom"},
		{"unknown core", `{"kind":"run","bench":"gcc","cores":["z80"]}`, "z80"},
		{"zero-width custom core", `{"kind":"run","bench":"gcc","custom":[{"Name":"bad","Width":0}]}`, "custom core 0"},
		{"run with two cores", `{"kind":"run","bench":"gcc","cores":["gcc","mcf"]}`, "exactly one core"},
		{"contest with one core", `{"kind":"contest","bench":"gcc","cores":["gcc"]}`, "2..8"},
		{"negative n", `{"kind":"run","bench":"gcc","n":-5}`, "negative trace length"},
		{"oversized n", `{"kind":"run","bench":"gcc","n":10000000000}`, "limit of 100000000"},
		{"n one past the limit", `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"n":100000001}`, "limit of 100000000"},
		{"negative max_lag", `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"contest":{"MaxLag":-1}}`, "MaxLag"},
		{"negative store queue", `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"contest":{"StoreQueueCap":-2}}`, "StoreQueueCap"},
		{"refork warm-up without kill-refork", `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"contest":{"ReforkColdCaches":true}}`, "need ExceptionKillRefork"},
		{"unknown experiment", `{"kind":"experiment","experiment":"figZZ"}`, "unknown experiment"},
		{"run options on contest", `{"kind":"contest","bench":"gcc","cores":["gcc","mcf"],"run":{}}`, "run options"},
		{"record on matrix", `{"kind":"matrix","record":true}`, "record"},
		{"unknown explore mode", `{"kind":"explore","bench":"gcc","explore":{"mode":"temper"}}`, `unknown field "mode"`},
		{"verify on explore", `{"kind":"explore","bench":"gcc","verify":true}`, "verify"},
		{"pairs on run", `{"kind":"run","bench":"gcc","pairs":2}`, "pairs"},
		{"cache level over the line limit", hostile["cache"], "exceeds the limit of 1048576 lines"},
		{"explore window of 10^8", hostile["explore"], "steps 100000000 exceeds the limit of 100000"},
		{"explore steps one past the limit", `{"kind":"explore","bench":"gcc","explore":{"steps":100001}}`, "limit of 100000"},
		{"explore lookahead one past the limit", `{"kind":"explore","bench":"gcc","explore":{"steps":10,"lookahead":65}}`, "lookahead 65 exceeds the limit of 64"},
		{"nine custom cores counted before validation", hostile["cores"], "2..8 cores, got 9"},
		{"two custom cores on run", `{"kind":"run","bench":"gcc","custom":[{"Name":"a"},{"Name":"b"}]}`, "exactly one core, got 2"},
		{"explore options on run", `{"kind":"run","bench":"gcc","explore":{"steps":5}}`, "explore options"},
		{"negative exception handler time", hostile["handler"], "negative ExceptionHandlerNs -1"},
		{"negative refork penalty", hostile["refork"], "negative ExceptionReforkNs -1"},
		{"negative time bound", hostile["maxtime"], "negative MaxTimeNs -1"},
		{"MaxLag of 2^62+1", hostile["maxlag"], "MaxLag 4611686018427387905 exceeds the limit of 1048576"},
		{"MaxLag one past the limit", contestSpec(`"MaxLag":1048577`), "limit of 1048576"},
		{"negative contest latency", contestSpec(`"LatencyNs":-0.5`), "negative LatencyNs"},
		{"RegionSize of 1 on 8 cores at n = 10^8", hostile["region"], "RegionSize 1 must be 0 (no region log) or at least 20"},
		{"negative RegionSize", contestSpec(`"RegionSize":-1`), "RegionSize -1 must be 0 (no region log) or at least 20"},
		{"params on srrip", customSpec(func(c *config.CoreConfig) { c.L1D.Replacement, c.L1D.ReplParams = "srrip", "x" }),
			`replacement policy "srrip" takes no params, got "x"`},
		{"params on stride", customSpec(func(c *config.CoreConfig) { c.Prefetch = cache.PrefetchConfig{Name: "stride", Params: "x"} }),
			`prefetcher "stride" takes no params, got "x"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp, err := Parse([]byte(c.json))
			if err == nil {
				err = sp.Validate()
			}
			if err == nil {
				t.Fatalf("accepted invalid spec %s", c.json)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestSpecValidateBuildsNoPredictor: Validate checks custom predictor
// geometry without building the tables. A contest of eight custom cores
// with the largest TAGE it accepts (a 2^24 base and 15 tables of 2^20)
// allocated over 600 MB per Validate when the check built them.
func TestSpecValidateBuildsNoPredictor(t *testing.T) {
	big := config.MustPaletteCore("gcc")
	big.Predictor = branch.Config{Kind: "tage", LogSize: 24,
		TageTables: 15, TageLogSize: 20, TageTagBits: 16, TageMinHist: 1, TageMaxHist: 64}
	sp := Spec{Kind: KindContest, Bench: "gcc"}
	for i := 0; i < 8; i++ {
		c := big
		c.Name = fmt.Sprintf("big%d", i)
		sp.Custom = append(sp.Custom, c)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := sp.Validate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("largest accepted TAGE rejected: %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("Validate allocated %d bytes, want under 1 MB", n)
	}
}

// TestSpecValidateBuildsNoCacheComponent: Validate checks the built-in
// replacement policies and prefetchers without building them. Eight custom
// cores at the line limit on both levels, with SRRIP or random replacement
// and a stride or next-line prefetcher, would allocate 16 MB of SRRIP
// state if the check built it.
func TestSpecValidateBuildsNoCacheComponent(t *testing.T) {
	sp := Spec{Kind: KindContest, Bench: "gcc"}
	for i := 0; i < 8; i++ {
		c := config.MustPaletteCore("gcc")
		c.Name = fmt.Sprintf("big%d", i)
		repl := []string{"srrip", "random"}[i%2]
		for _, l := range []*cache.Config{&c.L1D, &c.L2D} {
			l.Sets, l.Assoc, l.Replacement = cache.MaxLines/4, 4, repl
		}
		c.Prefetch.Name = []string{"stride", "nextline"}[i/2%2]
		sp.Custom = append(sp.Custom, c)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := sp.Validate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("cores at the line limit rejected: %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("Validate allocated %d bytes, want under 1 MB", n)
	}
}

// TestSpecValidateDefaults: a minimal valid spec normalizes to runnable
// defaults.
func TestSpecValidateDefaults(t *testing.T) {
	sp, err := Parse([]byte(`{"bench":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindRun || sp.N != 200_000 || len(sp.Cores) != 1 || sp.Cores[0] != "gcc" {
		t.Errorf("normalized spec %+v", sp)
	}
}

// TestRouteKey: the cluster routing identity must follow artifact
// identity — observation toggles leave it fixed, artifact-changing fields
// move it, and it is deterministic across normalized/unnormalized copies.
func TestRouteKey(t *testing.T) {
	base := Spec{Kind: KindContest, Bench: "twolf", N: 20000, Cores: []string{"twolf", "vpr"}}
	k := base.RouteKey()
	if k == "" || k != base.RouteKey() {
		t.Fatal("RouteKey not deterministic")
	}

	// Normalization-invariant: an empty kind that infers to contest and an
	// explicit one route identically.
	inferred := Spec{Bench: "twolf", N: 20000, Cores: []string{"twolf", "vpr"}}
	if inferred.RouteKey() != k {
		t.Error("inferred-kind spec routes differently from its explicit twin")
	}

	// Observation-only fields keep the key: a recorded or verified re-run
	// of a scenario still lands on the node holding its artifacts.
	obs := base
	obs.Record = true
	obs.Verify = true
	obs.SampleNs = 50
	obs.Parallelism = 4
	if obs.RouteKey() != k {
		t.Error("observation-only fields changed the route key")
	}

	// Artifact-changing fields must move the key.
	for name, mut := range map[string]func(*Spec){
		"bench": func(s *Spec) { s.Bench = "vpr" },
		"n":     func(s *Spec) { s.N = 40000 },
		"cores": func(s *Spec) { s.Cores = []string{"twolf", "gcc"} },
		"lat":   func(s *Spec) { s.LatencyNs = 9 },
		"opts":  func(s *Spec) { s.Contest = &contest.Options{MaxLag: 7} },
	} {
		mutated := base
		mut(&mutated)
		if mutated.RouteKey() == k {
			t.Errorf("%s change did not change the route key", name)
		}
	}

	// Specs that state the same leaves differently route alike: the second
	// of each pair is served wholly from the cache the first one filled.
	for _, pair := range [][2]string{
		{`{"kind":"contest","bench":"twolf","n":2000,"cores":["twolf","vpr"],"latency_ns":2}`,
			`{"kind":"contest","bench":"twolf","n":2000,"cores":["twolf","vpr"],"contest":{"LatencyNs":2}}`},
		{`{"kind":"contest","bench":"twolf","n":2000,"cores":["twolf","vpr"]}`,
			`{"kind":"contest","bench":"twolf","n":2000,"cores":["twolf","vpr"],"latency_ns":1}`},
		{`{"kind":"run","bench":"gcc","n":2000}`, `{"kind":"run","bench":"gcc","n":2000,"run":{}}`},
	} {
		cache, err := resultcache.Open("", resultcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		env := NewEnv(cache)
		var sps [2]Spec
		for i, js := range pair {
			if sps[i], err = Parse([]byte(js)); err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(context.Background(), sps[i], env, Hooks{}); err != nil {
				t.Fatal(err)
			}
		}
		if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Errorf("%s then %s: %d misses and %d hits, want one of each", pair[0], pair[1], st.Misses, st.Hits)
		}
		if sps[0].RouteKey() != sps[1].RouteKey() {
			t.Errorf("%s and %s share their leaf but route differently", pair[0], pair[1])
		}
	}
}

// TestNormalizeKeepsCallerOptions: Normalize resolves a spec's leaf
// options into copies, never through the caller's Run, Contest or Explore,
// and a normalized spec carries them resolved.
func TestNormalizeKeepsCallerOptions(t *testing.T) {
	run := &sim.RunOptions{}
	con := &contest.Options{MaxLag: 64}
	exp := &ExploreSpec{Seed: 3}
	sps := []Spec{
		{Kind: KindRun, Bench: "gcc", N: 2000, Run: run},
		{Kind: KindContest, Bench: "gcc", N: 2000, Cores: []string{"gcc", "mcf"}, LatencyNs: 2, Contest: con},
		{Kind: KindExplore, Bench: "gcc", Explore: exp},
	}
	for _, sp := range sps {
		sp.RouteKey()
		sp.ProgressTotal()
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range sps[:2] {
		if _, err := Execute(context.Background(), sp, nil, Hooks{Progress: func(int64, int64) {}}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(*run, sim.RunOptions{}) || !reflect.DeepEqual(*con, contest.Options{MaxLag: 64}) ||
		*exp != (ExploreSpec{Seed: 3}) {
		t.Errorf("caller's options changed: run %+v, contest %+v, explore %+v", *run, *con, *exp)
	}
	for i := range sps {
		sps[i].Normalize()
	}
	if sps[0].Run == nil || !reflect.DeepEqual(*sps[1].Contest, contest.Options{MaxLag: 64, LatencyNs: 2}) ||
		*sps[2].Explore != (ExploreSpec{Seed: 3, Steps: explore.DefaultSteps}) {
		t.Errorf("normalized options: run %v, contest %+v, explore %+v", sps[0].Run, *sps[1].Contest, *sps[2].Explore)
	}
}
