package spec

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/explore"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/workload"
)

// TestVerifiedSpecCacheRule pins Execute's leaf cache rule for both leaf
// kinds: a plain leaf is stored once and then served as a hit (with the
// progress hook still reporting completion, so a serve job's hook never
// makes its leaf uncacheable), while a verified or recorded leaf neither
// reads nor writes the cache and returns the plain result.
func TestVerifiedSpecCacheRule(t *testing.T) {
	ctx := context.Background()
	kinds := []struct {
		name string
		sp   Spec
		leaf func(*Outcome) any
	}{
		{"run", Spec{Kind: KindRun, Bench: "twolf", N: testInsts, Cores: []string{"twolf"}},
			func(o *Outcome) any { return o.Run }},
		{"contest", Spec{Kind: KindContest, Bench: "twolf", N: testInsts, Cores: []string{"twolf", "vpr"}},
			func(o *Outcome) any { return o.Contest }},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			cache, err := resultcache.Open("", resultcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			env := NewEnv(cache)
			execute := func(sp Spec) *Outcome {
				t.Helper()
				var last [2]int64
				out, err := Execute(ctx, sp, env, Hooks{Progress: func(done, total int64) { last = [2]int64{done, total} }})
				if err != nil {
					t.Fatal(err)
				}
				if n := int64(sp.N); last != [2]int64{n, n} {
					t.Errorf("last progress %v, want (%d, %d)", last, n, n)
				}
				return out
			}

			plain := execute(k.sp)
			if st := cache.Stats(); st.Misses != 1 || st.Stores != 1 || st.Hits != 0 {
				t.Fatalf("first plain execution: %+v, want 1 miss and 1 store", st)
			}
			again := execute(k.sp)
			if st := cache.Stats(); st.Hits != 1 || st.Stores != 1 {
				t.Errorf("second plain execution: %+v, want a hit and no new store", st)
			}
			if !reflect.DeepEqual(k.leaf(plain), k.leaf(again)) {
				t.Errorf("cache hit differs from the executed result")
			}

			for _, mode := range []string{"verify", "record"} {
				sp := k.sp
				sp.Verify = mode == "verify"
				sp.Record = mode == "record"
				before := cache.Stats()
				out := execute(sp)
				if after := cache.Stats(); after != before {
					t.Errorf("%s touched the cache: %+v -> %+v", mode, before, after)
				}
				if !reflect.DeepEqual(k.leaf(out), k.leaf(plain)) {
					t.Errorf("%s result differs from the plain one", mode)
				}
			}
		})
	}

	// A spec contest without latency_ns and the Lab's contest of the same
	// leaf are one simulation, so they share one cache entry.
	t.Run("spec-then-lab-contest", func(t *testing.T) {
		cache, err := resultcache.Open("", resultcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sp := Spec{Kind: KindContest, Bench: "twolf", N: 20_000, Cores: []string{"twolf", "vpr"}}
		out, err := Execute(ctx, sp, NewEnv(cache), Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		lab := experiments.NewLab(experiments.Config{N: 20_000, Cache: cache})
		res, err := lab.Contest(ctx, "twolf", []string{"twolf", "vpr"}, contest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.Misses != 1 || st.Stores != 1 || st.Hits != 1 {
			t.Errorf("spec then Lab contest: %+v, want 1 miss, 1 store and 1 hit", st)
		}
		if !reflect.DeepEqual(*out.Contest, res) {
			t.Errorf("Lab contest differs from the spec contest")
		}
	})
}

// TestExploreSpecMatchesCustomize runs the explore kind end to end: the
// outcome is exactly explore.Customize's on the same trace and options,
// the hooks see the walk in order, and a repeat is served from the cache.
func TestExploreSpecMatchesCustomize(t *testing.T) {
	ctx := context.Background()
	sp, err := Parse([]byte(`{"kind":"explore","bench":"gcc","n":4000,"explore":{"seed":3,"steps":12,"lookahead":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := resultcache.Open("", resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(cache)

	var moves []int
	var progress [][2]int64
	out, err := Execute(ctx, sp, env, Hooks{
		Progress:    func(done, total int64) { progress = append(progress, [2]int64{done, total}) },
		ExploreMove: func(step int, _ config.CoreConfig, _ float64) { moves = append(moves, step) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := explore.Customize(ctx, workload.MustGenerate("gcc", 4000), explore.Options{Seed: 3, Steps: 12, Lookahead: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*out.Explore, want) {
		t.Errorf("explore spec outcome differs from Customize\n%+v\n%+v", *out.Explore, want)
	}
	if len(moves) == 0 {
		t.Error("ExploreMove saw no accepted move")
	}
	for i := 1; i < len(moves); i++ {
		if moves[i] <= moves[i-1] {
			t.Errorf("ExploreMove steps not strictly increasing: %v", moves)
			break
		}
	}
	for i := 1; i < len(progress); i++ {
		if progress[i][0] < progress[i-1][0] {
			t.Errorf("progress decreased: %v", progress)
			break
		}
	}
	if len(progress) == 0 || progress[len(progress)-1] != [2]int64{12, 12} {
		t.Errorf("progress %v, want it to end at (12, 12)", progress)
	}

	before := cache.Stats()
	if _, err := Execute(ctx, sp, env, Hooks{}); err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats(); after.Misses != before.Misses {
		t.Errorf("repeated walk missed the cache: %+v -> %+v", before, after)
	}
}

// TestExploreSpecHonoursEnvParallelism: an explore spec that sets no
// parallelism takes the environment's, so a one-slot environment never has
// two design-point evaluations in flight.
func TestExploreSpecHonoursEnvParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("evaluations cannot overlap on one CPU")
	}
	env := &Env{Parallelism: 1, Artifacts: obs.NewArtifactLog()}
	sp := Spec{Kind: KindExplore, Bench: "gcc", N: 4000, Explore: &ExploreSpec{Seed: 1, Steps: 16, Lookahead: 4}}
	if _, err := Execute(context.Background(), sp, env, Hooks{}); err != nil {
		t.Fatal(err)
	}
	spans := env.Artifacts.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].End) {
			t.Fatalf("two evaluations in flight at once on a one-slot environment: %+v and %+v", spans[i-1], spans[i])
		}
	}
}

// TestProgressPlainAndVerified: a run and a contest, plain and verified,
// report progress through Execute from the engine's run loop: at most 257
// calls (at most 256 from the loop and the final one), more than the final
// one alone, never decreasing, the last (n, n).
func TestProgressPlainAndVerified(t *testing.T) {
	for _, sp := range []Spec{
		{Kind: KindRun, Bench: "twolf", N: testInsts, Cores: []string{"twolf"}},
		{Kind: KindContest, Bench: "twolf", N: testInsts, Cores: []string{"twolf", "vpr"}},
		{Kind: KindRun, Bench: "twolf", N: testInsts, Cores: []string{"twolf"}, Verify: true},
		{Kind: KindContest, Bench: "twolf", N: testInsts, Cores: []string{"twolf", "vpr"}, Verify: true},
	} {
		var calls [][2]int64
		hooks := Hooks{Progress: func(done, total int64) { calls = append(calls, [2]int64{done, total}) }}
		if _, err := Execute(context.Background(), sp, NewEnv(nil), hooks); err != nil {
			t.Fatal(err)
		}
		what := sp.Kind
		if sp.Verify {
			what = "verified " + what
		}
		n := int64(testInsts)
		if len(calls) < 2 || len(calls) > 257 || calls[len(calls)-1] != [2]int64{n, n} {
			t.Errorf("%s: %d progress calls ending %v, want 2 to 257 ending at (%d, %d)", what, len(calls), calls[max(0, len(calls)-1):], n, n)
		}
		for i := 1; i < len(calls); i++ {
			if calls[i][0] < calls[i-1][0] {
				t.Errorf("%s: progress decreased: %v then %v", what, calls[i-1], calls[i])
				break
			}
		}
	}
}

// TestExploreDefaultStepsProgress: an explore spec that sets no steps walks
// explore.DefaultSteps and reports them through the run loops' meter: at
// most 257 calls, never decreasing, the last (200, 200).
func TestExploreDefaultStepsProgress(t *testing.T) {
	var calls [][2]int64
	hooks := Hooks{Progress: func(done, total int64) { calls = append(calls, [2]int64{done, total}) }}
	sp := Spec{Kind: KindExplore, Bench: "gcc", N: 2000, Explore: &ExploreSpec{Seed: 1}}
	if _, err := Execute(context.Background(), sp, NewEnv(nil), hooks); err != nil {
		t.Fatal(err)
	}
	const steps = explore.DefaultSteps
	if len(calls) == 0 || len(calls) > 257 || calls[len(calls)-1] != [2]int64{steps, steps} {
		t.Fatalf("%d progress calls ending %v, want 1 to 257 ending at (%d, %d)", len(calls), calls[max(0, len(calls)-1):], steps, steps)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i][0] < calls[i-1][0] || calls[i][1] != steps {
			t.Fatalf("progress %v then %v, want non-decreasing done out of %d", calls[i-1], calls[i], steps)
		}
	}
}
