package archcontest

// The championship component SPI: the registries through which third-party
// branch predictors, cache replacement policies, and prefetchers plug into
// the engine by name. A registered component is selected from a
// configuration exactly like a built-in — BranchConfig{Kind: name},
// CacheConfig.Replacement, or PrefetchConfig{Name: name} — and from there
// every layer works unchanged: single runs, contests, the verification
// subsystem, the fast-model filter, and the leaderboard all accept it.
//
// The contract (enforced for predictors by PredictorConformance, and the
// same in spirit for the cache components): deterministic — equal
// construction plus an equal call sequence yields equal outputs; Reset
// restores the exact post-construction cold state; and the hot-path methods
// (Predict/Update, Touch/Insert/Victim, OnAccess) must not allocate.
// Every predictor, built-in or registered, is called through the
// BranchPredictor interface; only the built-in true-LRU replacement keeps a
// fused fast path, and other policies run through CacheReplacer.

import (
	"context"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/experiments"
)

// BranchConfig selects and parameterizes a branch predictor; Kind may name a
// built-in ("gshare", "bimodal", "tage") or a registered family, with Params
// carrying the family's opaque parameter string.
type BranchConfig = branch.Config

// BranchPredictor is the predictor SPI: Predict and Update per branch,
// Reset to cold state.
type BranchPredictor = branch.Predictor

// BranchFactory builds a predictor from its configuration.
type BranchFactory = branch.Factory

// RegisterPredictor adds a predictor family under the given kind name.
// Built-in kinds are reserved; registering a taken name is an error.
func RegisterPredictor(kind string, f BranchFactory) error { return branch.Register(kind, f) }

// RegisteredPredictors lists every predictor kind — built-ins plus
// registered families — in sorted order.
func RegisteredPredictors() []string { return branch.Registered() }

// PredictorConformance checks a predictor configuration against the SPI
// contract: determinism across instances, Reset reproducing the cold
// sequence, and allocation-free Predict/Update.
func PredictorConformance(cfg BranchConfig) error { return branch.Conformance(cfg) }

// CacheConfig describes one cache level; its Replacement field names the
// replacement policy ("" or "lru" is the built-in fused-LRU fast path).
type CacheConfig = cache.Config

// CacheReplacer is the replacement-policy SPI: Touch on hit, Insert on
// fill, Victim to choose the evicted way, Reset to cold state.
type CacheReplacer = cache.Replacer

// CacheReplacerFactory builds a replacement policy for a sets x assoc
// geometry.
type CacheReplacerFactory = cache.ReplacerFactory

// RegisterReplacer adds a replacement policy under the given name ("" and
// "lru" are reserved for the built-in default).
func RegisterReplacer(name string, f CacheReplacerFactory) error {
	return cache.RegisterReplacer(name, f)
}

// ReplacerNames lists every selectable replacement policy, including the
// built-in "lru".
func ReplacerNames() []string { return cache.ReplacerNames() }

// PrefetchConfig names a hierarchy prefetcher; the zero value means no
// prefetching (the default).
type PrefetchConfig = cache.PrefetchConfig

// CachePrefetcher is the prefetcher SPI: OnAccess observes each demand load
// and appends the addresses to prefetch, Reset restores cold state.
type CachePrefetcher = cache.Prefetcher

// CachePrefetcherFactory builds a prefetcher for an L1 block size.
type CachePrefetcherFactory = cache.PrefetcherFactory

// RegisterPrefetcher adds a prefetcher under the given name (the empty name
// is reserved for "no prefetching").
func RegisterPrefetcher(name string, f CachePrefetcherFactory) error {
	return cache.RegisterPrefetcher(name, f)
}

// PrefetcherNames lists every registered prefetcher in sorted order.
func PrefetcherNames() []string { return cache.PrefetcherNames() }

// LeaderboardReport is the component championship's structured result:
// overall standings, per-workload rankings, and contested head-to-head legs.
type LeaderboardReport = experiments.LeaderboardReport

// LeaderboardCombo is one predictor x replacement x prefetcher combination.
type LeaderboardCombo = experiments.LeaderboardCombo

// LeaderboardCombos enumerates the championship cross-product: every
// registered predictor kind x replacement policy x prefetcher (plus the
// no-prefetch default), in deterministic order.
func LeaderboardCombos() []LeaderboardCombo { return experiments.LeaderboardCombos() }

// RunLeaderboard races every registered component combination — built-in
// and third-party alike — over the given workloads (all of the lab's
// benchmarks when benches is empty), ranking them per workload and overall
// and contesting each workload's top two combos head-to-head.
func RunLeaderboard(ctx context.Context, lab *Lab, benches []string) (*LeaderboardReport, error) {
	if len(benches) == 0 {
		benches = lab.Benchmarks()
	}
	return experiments.LeaderboardRun(ctx, lab, benches)
}
