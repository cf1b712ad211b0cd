package spec

import (
	"context"
	"reflect"
	"testing"

	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/resultcache"
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
