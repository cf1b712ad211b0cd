package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
)

func TestLeaderboardCombosCoverRegistries(t *testing.T) {
	combos := LeaderboardCombos()
	preds := map[string]bool{}
	repls := map[string]bool{}
	prefs := map[string]bool{}
	for _, c := range combos {
		preds[c.Predictor] = true
		repls[c.Replacement] = true
		prefs[c.Prefetcher] = true
	}
	for _, p := range branch.Registered() {
		if !preds[p] {
			t.Errorf("predictor %q missing from the cross-product", p)
		}
	}
	for _, r := range cache.ReplacerNames() {
		if !repls[r] {
			t.Errorf("replacement policy %q missing from the cross-product", r)
		}
	}
	for _, f := range cache.PrefetcherNames() {
		if !prefs[f] {
			t.Errorf("prefetcher %q missing from the cross-product", f)
		}
	}
	if !prefs[""] {
		t.Error("the no-prefetch default is missing from the cross-product")
	}
	// The floor that makes a championship meaningful: every component axis
	// offers a real choice.
	if len(preds) < 3 || len(repls) < 2 || len(prefs) < 3 {
		t.Errorf("cross-product too thin: %d predictors (want >= 3), %d replacement policies (want >= 2), %d prefetcher options (want >= 3)",
			len(preds), len(repls), len(prefs))
	}
	want := len(branch.Registered()) * len(cache.ReplacerNames()) * (len(cache.PrefetcherNames()) + 1)
	if len(combos) != want {
		t.Errorf("got %d combos, want %d", len(combos), want)
	}
}

func TestLeaderboardShape(t *testing.T) {
	l := NewLab(Config{N: 8_000})
	benches := []string{"gcc", "twolf"}
	rep, err := LeaderboardRun(context.Background(), l, benches)
	if err != nil {
		t.Fatal(err)
	}
	combos := LeaderboardCombos()
	if len(rep.Standings) != len(combos) {
		t.Fatalf("%d standings, want %d", len(rep.Standings), len(combos))
	}
	for i, s := range rep.Standings {
		if s.Geomean <= 0 || s.Geomean > 1+1e-12 {
			t.Errorf("standing %d (%s): geomean %v outside (0, 1]", i, s.Name, s.Geomean)
		}
		if i > 0 && s.Geomean > rep.Standings[i-1].Geomean {
			t.Errorf("standings not sorted at %d: %v after %v", i, s.Geomean, rep.Standings[i-1].Geomean)
		}
		for _, bench := range benches {
			r, ok := s.Rank[bench]
			if !ok || r < 1 || r > len(combos) {
				t.Errorf("standing %s: bad rank %d for %s", s.Name, r, bench)
			}
			if s.IPT[bench] <= 0 {
				t.Errorf("standing %s: non-positive IPT on %s", s.Name, bench)
			}
		}
	}
	// Every rank 1..len(combos) appears exactly once per workload.
	for _, bench := range benches {
		seen := make([]bool, len(combos)+1)
		for _, s := range rep.Standings {
			r := s.Rank[bench]
			if seen[r] {
				t.Fatalf("%s: duplicate rank %d", bench, r)
			}
			seen[r] = true
		}
	}
	if len(rep.HeadToHead) != len(benches) {
		t.Fatalf("%d head-to-head legs, want %d", len(rep.HeadToHead), len(benches))
	}
	for _, h := range rep.HeadToHead {
		if h.A == h.B {
			t.Errorf("%s: head-to-head contested a combo against itself (%s)", h.Bench, h.A)
		}
		if h.ContestIPT <= 0 || h.BestSingle <= 0 {
			t.Errorf("%s: non-positive contest/single IPT", h.Bench)
		}
	}
}

// TestConcurrentLeaderboard runs the championship from concurrent callers
// over one shared Lab: the singleflight must dedupe the shared leaves and
// both callers must see identical rankings. (This is the race-detector leg
// for the leaderboard runner.)
func TestConcurrentLeaderboard(t *testing.T) {
	l := NewLab(Config{N: 6_000, Parallelism: 4})
	benches := []string{"gcc", "mcf"}
	const callers = 3
	reps := make([]*LeaderboardReport, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = LeaderboardRun(context.Background(), l, benches)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(reps[0], reps[i]) {
			t.Fatalf("caller %d saw a different leaderboard than caller 0", i)
		}
	}
}
