package experiments

import (
	"context"
	"reflect"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/resultcache"
)

// contestList builds a small candidate list with a duplicate entry.
func contestList(l *Lab) [][]config.CoreConfig {
	cores := l.Cores()
	return [][]config.CoreConfig{
		{cores[0], cores[1]},
		{cores[2], cores[3]},
		{cores[0], cores[1]}, // duplicate of the first
		{cores[1], cores[4]},
		{cores[5], cores[0]},
	}
}

// TestContestsConfigsMatchesDirect: every ContestsConfigs leaf must equal a
// direct contest.RunContext on the Lab's trace, at any parallelism, and
// duplicate configurations must be computed once.
func TestContestsConfigsMatchesDirect(t *testing.T) {
	ctx := context.Background()
	for _, par := range []int{1, 2} {
		l := NewLab(Config{N: 8_000, Parallelism: par})
		list := contestList(l)
		got, err := l.ContestsConfigs(ctx, "gcc", list, contest.Options{})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if c := l.CampaignStats().Contests; c != 4 {
			t.Errorf("par=%d: executed %d contests, want 4 (duplicate shared)", par, c)
		}
		tr, err := l.Trace(ctx, "gcc")
		if err != nil {
			t.Fatal(err)
		}
		for i, cfgs := range list {
			want, err := contest.RunContext(ctx, cfgs, tr, contest.Options{LatencyNs: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("par=%d: contest %d diverged from a direct run", par, i)
			}
		}
	}
}

// ContestsConfigs must serve the result cache and the singleflight memo: a
// later per-leaf Contest of the same key gets the memoized value, and a
// fresh Lab over the same cache executes nothing.
func TestContestsConfigsCacheAndMemo(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cache, err := resultcache.Open(dir, resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLab(Config{N: 8_000, Cache: cache})
	list := contestList(l)
	first, err := l.ContestsConfigs(ctx, "gcc", list, contest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := l.CampaignStats().Contests; c != 4 {
		t.Fatalf("cold call executed %d contests, want 4", c)
	}

	r, err := l.ContestConfigs(ctx, "gcc", list[0], contest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, first[0]) {
		t.Error("per-leaf Contest diverged from the ContestsConfigs result")
	}
	if c := l.CampaignStats().Contests; c != 4 {
		t.Errorf("memoized per-leaf Contest re-executed (contests=%d)", c)
	}

	warm := NewLab(Config{N: 8_000, Cache: cache})
	second, err := warm.ContestsConfigs(ctx, "gcc", contestList(warm), contest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Error("warm results diverged")
	}
	st := warm.CampaignStats()
	if st.Contests != 0 || st.CacheHits != 4 {
		t.Errorf("warm call: contests=%d cache hits=%d, want 0 executed / 4 hits", st.Contests, st.CacheHits)
	}
}

// BestPair's candidate fan-out must not depend on the parallelism level.
func TestBestPairIndependentOfParallelism(t *testing.T) {
	ctx := context.Background()
	want, err := NewLab(Config{N: 10_000, CandidatePairs: 3, Parallelism: 1}).BestPair(ctx, "twolf")
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewLab(Config{N: 10_000, CandidatePairs: 3, Parallelism: 2}).BestPair(ctx, "twolf")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BestPair depends on parallelism:\n got %+v\nwant %+v", got, want)
	}
}
