// Package experiments drives the reproduction of every table and figure in
// the paper's evaluation. A Lab is the campaign engine: every expensive
// artifact — a synthetic trace, one benchmark-on-core single run, the 11x11
// IPT matrix, a per-benchmark switching study, a contested run, a best-pair
// search — is a task keyed by its inputs. Tasks are deduplicated across
// concurrent callers by a keyed, memoizing singleflight (two goroutines
// asking for the same artifact compute it once and share the result), their
// leaf simulations execute on a bounded pool that saturates the configured
// parallelism across benchmarks rather than within one call, and leaf
// results are persisted in an optional content-addressed result cache so a
// re-run only simulates what changed.
//
// Every artifact accessor takes a context. Cancellation is cooperative and
// bounded: un-started DAG leaves are abandoned (workers claim remaining
// items as cancelled without running them), in-flight leaves stop at the
// engines' next context poll, singleflight waiters unblock with the context
// error, and a cancelled leaf never reaches the result cache — so an
// interrupted campaign leaves only complete, loadable cache entries behind.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/merit"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/switching"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// N is the trace length in instructions (default 1,000,000 — the scaled
	// stand-in for the paper's 100M-instruction SimPoints).
	N int
	// LatencyNs is the core-to-core latency (default
	// contest.DefaultLatencyNs).
	LatencyNs float64
	// CandidatePairs is how many oracle-shortlisted pairs are contested per
	// benchmark when searching for its best contesting pair (default 3; the
	// pair containing the benchmark's own core is always added).
	CandidatePairs int
	// Parallelism bounds concurrently executing simulations (zero or
	// negative means NumCPU). The bound is global to the Lab: no matter
	// how many artifacts are requested concurrently, at most Parallelism
	// simulations run at once.
	Parallelism int
	// Cache, if non-nil, persists leaf results (single runs and contests)
	// across processes. Derived artifacts (matrix, studies, best pairs)
	// are cheap arithmetic over the leaves and are recomputed, which keeps
	// cache invalidation exact: a leaf key hashes the engine version, the
	// trace fingerprint, the core configuration, and the run options.
	Cache *resultcache.Cache
	// Verify attaches the verification subsystem (internal/invariant) to
	// every leaf simulation: per-cycle invariant checks plus differential
	// oracle replay of each core's retirement stream. A violation fails the
	// leaf. Verified leaves bypass the result cache in both directions —
	// the checks happen during execution, so a cache hit would silently
	// skip them, and a verified result must never launder into unverified
	// campaigns.
	Verify bool
	// VerifyScanEvery strides the checker's O(window) structural scans
	// (0 = every cycle). Only meaningful with Verify.
	VerifyScanEvery int64
	// Artifacts, if non-nil, receives a timed span for every leaf
	// computation the Lab actually executes (trace generation, single
	// runs, contests) — the campaign's self-observability timeline.
	// Memoized and cache-served artifacts record nothing, so the log
	// shows real work only. Excluded from result-cache keys.
	Artifacts *obs.ArtifactLog `json:"-"`
}

func (c *Config) applyDefaults() {
	if c.N == 0 {
		c.N = 1_000_000
	}
	if c.LatencyNs == 0 {
		c.LatencyNs = contest.DefaultLatencyNs
	}
	if c.CandidatePairs == 0 {
		c.CandidatePairs = 3
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
}

// CampaignStats counts the work a Lab actually performed, as opposed to
// the artifacts it served from memoization or the result cache.
type CampaignStats struct {
	// TraceGens, Simulations and Contests count executed leaf computations.
	TraceGens, Simulations, Contests int64
	// CacheHits and CacheMisses count result-cache lookups for leaf work
	// (zero when no cache is configured).
	CacheHits, CacheMisses int64
}

// Lab holds the cached shared state of an experiment campaign.
type Lab struct {
	cfg     Config
	benches []string
	cores   []config.CoreConfig

	flight flightGroup
	sem    chan struct{} // bounds concurrently executing leaf computations

	// leafBody, when set, runs each leaf body inside its span;
	// TestExperimentsFanOut sets it to hold a leaf until a second one is in
	// flight.
	leafBody func(kind string, body func())

	traceGens, sims, contests, cacheHits, cacheMisses atomic.Int64
}

// NewLab builds a lab over the full benchmark registry and Appendix A
// palette.
func NewLab(cfg Config) *Lab {
	cfg.applyDefaults()
	return &Lab{
		cfg:     cfg,
		benches: workload.Benchmarks(),
		cores:   config.Palette(),
		sem:     make(chan struct{}, cfg.Parallelism),
	}
}

// Benchmarks reports the benchmark names.
func (l *Lab) Benchmarks() []string { return l.benches }

// Cores reports the palette.
func (l *Lab) Cores() []config.CoreConfig { return l.cores }

// N reports the configured trace length.
func (l *Lab) N() int { return l.cfg.N }

// CampaignStats reports the executed-work counters so far.
func (l *Lab) CampaignStats() CampaignStats {
	return CampaignStats{
		TraceGens:   l.traceGens.Load(),
		Simulations: l.sims.Load(),
		Contests:    l.contests.Load(),
		CacheHits:   l.cacheHits.Load(),
		CacheMisses: l.cacheMisses.Load(),
	}
}

// flightGroup is a keyed, memoizing singleflight: the first caller of a key
// runs the function; concurrent callers for the same key wait and share the
// result; later callers get the memoized value without recomputation. A
// failed call is forgotten so the artifact can be retried.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// do runs fn once per key. Waiters block on the executing call but stay
// cancellable: a waiter whose own context ends returns its ctx error
// without waiting for the executor. When the executing call itself died of
// cancellation (its error is a context error) but this caller's context is
// still live, the forgotten call is retried rather than inheriting a
// foreign cancellation.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[string]*flightCall)
		}
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if isCtxErr(c.err) && ctx.Err() == nil {
				continue // executor was cancelled, we weren't: retry
			}
			return c.val, c.err
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		c.val, c.err = fn()
		if c.err != nil {
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
		}
		close(c.done)
		return c.val, c.err
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execTimed runs one leaf computation under the global parallelism bound.
// The caller's goroutine blocks until a slot frees (or its context ends)
// and executes fn itself, so the Lab never owns idle worker goroutines.
// Leaf computations are pure (they never wait on other Lab tasks), so slot
// holders cannot deadlock. When Artifacts is configured, fn runs inside a
// recorded span; the span starts after the semaphore is acquired, so the
// artifact timeline shows executing work, not queueing.
func (l *Lab) execTimed(ctx context.Context, kind, name string, fn func()) error {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-l.sem }()
	if l.leafBody != nil {
		body := fn
		fn = func() { l.leafBody(kind, body) }
	}
	l.cfg.Artifacts.Time(kind, name, fn)
	return nil
}

// parallel is Parallel with the Lab's Parallelism.
func (l *Lab) parallel(ctx context.Context, n int, fn func(i int) error) error {
	return Parallel(ctx, l.cfg.Parallelism, n, fn)
}

// Parallel runs fn(i) for i in [0, n) on a pool of 1..workers goroutines
// (not one per item) and returns the error of the lowest-indexed failing
// item, deterministically. Once the context ends, the workers mark the
// remaining un-started items with the context error instead of running
// them, so a cancelled campaign abandons its un-started leaves at once.
func Parallel(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = max(1, min(workers, n))
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(n) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(int(i))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gather runs fn(i) for i in [0, n) on parallel's worker pool and returns
// the values in index order, or the lowest-indexed error. An experiment
// hands its whole leaf list to one gather and builds its table from the
// results in declared order, so the pool sees every leaf at once. Nested
// gathers cannot deadlock: only leaves hold pool slots.
func gather[T any](ctx context.Context, l *Lab, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := l.parallel(ctx, n, func(i int) (err error) {
		out[i], err = fn(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Trace returns (generating and caching) the benchmark's trace.
func (l *Lab) Trace(ctx context.Context, bench string) (*trace.Trace, error) {
	v, err := l.flight.do(ctx, "trace/"+bench, func() (any, error) {
		p, err := workload.ProfileFor(bench)
		if err != nil {
			return nil, err
		}
		var tr *trace.Trace
		if eerr := l.execTimed(ctx, "trace", bench, func() {
			l.traceGens.Add(1)
			tr, err = workload.Generate(p, l.cfg.N)
		}); eerr != nil {
			return nil, eerr
		}
		if err != nil {
			return nil, err
		}
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// RunOn returns (computing, deduplicating, and caching) one benchmark's
// stand-alone run on one palette-or-custom core configuration.
func (l *Lab) RunOn(ctx context.Context, bench string, cfg config.CoreConfig, opts sim.RunOptions) (sim.Result, error) {
	tr, err := l.Trace(ctx, bench)
	if err != nil {
		return sim.Result{}, err
	}
	key := RunKey(tr, cfg, opts)
	v, err := l.flight.do(ctx, "run/"+key, func() (any, error) {
		return leaf(ctx, l, key, "run", bench+"/"+cfg.Name, &l.sims, func() (sim.Result, error) {
			if l.cfg.Verify {
				return RunVerified(ctx, cfg, tr, opts, l.cfg.VerifyScanEvery)
			}
			return sim.RunContext(ctx, cfg, tr, opts)
		})
	})
	if err != nil {
		return sim.Result{}, err
	}
	return v.(sim.Result), nil
}

// leaf executes one Lab leaf under the leaf cache rule (Cached; a verified
// Lab bypasses the cache), counting each lookup. An executed leaf takes a
// worker slot, runs inside a kind span and counts in done.
func leaf[T any](ctx context.Context, l *Lab, key, kind, name string, done *atomic.Int64, run func() (T, error)) (T, error) {
	return Cached(l.cfg.Cache, key, l.cfg.Verify, l.countLookup, func() (r T, err error) {
		if eerr := l.execTimed(ctx, kind, name, func() {
			done.Add(1)
			r, err = run()
		}); eerr != nil {
			return r, eerr
		}
		return r, err
	})
}

func (l *Lab) countLookup(hit bool) {
	if hit {
		l.cacheHits.Add(1)
	} else {
		l.cacheMisses.Add(1)
	}
}

// Runs returns (computing and caching) the benchmark's single-core runs on
// every palette core, region-logged, in palette order. Single-core runs use
// the write-through policy, like the contests they are compared with
// (DESIGN §3).
func (l *Lab) Runs(ctx context.Context, bench string) ([]sim.Result, error) {
	v, err := l.flight.do(ctx, "runs/"+bench, func() (any, error) {
		return gather(ctx, l, len(l.cores), func(i int) (sim.Result, error) {
			return l.RunOn(ctx, bench, l.cores[i], sim.RunOptions{LogRegions: true})
		})
	})
	if err != nil {
		return nil, err
	}
	return v.([]sim.Result), nil
}

// Matrix returns (computing and caching) the benchmark x core IPT matrix
// from stand-alone runs. All benchmarks' runs are requested concurrently,
// so a single Matrix call saturates the Lab's parallelism across the whole
// 11x11 campaign instead of one benchmark at a time.
func (l *Lab) Matrix(ctx context.Context) (*merit.Matrix, error) {
	v, err := l.flight.do(ctx, "matrix", func() (any, error) {
		names := make([]string, len(l.cores))
		for i, c := range l.cores {
			names[i] = c.Name
		}
		m := merit.NewMatrix(l.benches, names)
		runs, err := gather(ctx, l, len(l.benches), func(b int) ([]sim.Result, error) {
			return l.Runs(ctx, l.benches[b])
		})
		if err != nil {
			return nil, err
		}
		for b, rs := range runs {
			for c, r := range rs {
				m.IPT[b][c] = r.IPT()
			}
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*merit.Matrix), nil
}

// Study returns (computing and caching) the benchmark's switching study.
func (l *Lab) Study(ctx context.Context, bench string) (*switching.Study, error) {
	v, err := l.flight.do(ctx, "study/"+bench, func() (any, error) {
		rs, err := l.Runs(ctx, bench)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(l.cores))
		baseline := -1
		for i, c := range l.cores {
			names[i] = c.Name
			if c.Name == bench {
				baseline = i
			}
		}
		if baseline < 0 {
			return nil, fmt.Errorf("experiments: no customized core for %s", bench)
		}
		return switching.NewStudy(names, rs, baseline)
	})
	if err != nil {
		return nil, err
	}
	return v.(*switching.Study), nil
}

// Contest runs (deduplicating and caching) a contested execution of the
// benchmark on the named palette cores at the lab's latency.
func (l *Lab) Contest(ctx context.Context, bench string, coreNames []string, opts contest.Options) (contest.Result, error) {
	cfgs := make([]config.CoreConfig, len(coreNames))
	for i, n := range coreNames {
		c, err := config.PaletteCore(n)
		if err != nil {
			return contest.Result{}, err
		}
		cfgs[i] = c
	}
	return l.ContestConfigs(ctx, bench, cfgs, opts)
}

// ContestConfigs is Contest over explicit core configurations (hybrids,
// custom cores) rather than palette names.
func (l *Lab) ContestConfigs(ctx context.Context, bench string, cfgs []config.CoreConfig, opts contest.Options) (contest.Result, error) {
	tr, err := l.Trace(ctx, bench)
	if err != nil {
		return contest.Result{}, err
	}
	if opts.LatencyNs == 0 {
		opts.LatencyNs = l.cfg.LatencyNs
	}
	span := bench
	for _, c := range cfgs {
		span += "/" + c.Name
	}
	key := ContestKey(tr, cfgs, opts)
	v, err := l.flight.do(ctx, "contest/"+key, func() (any, error) {
		return leaf(ctx, l, key, "contest", span, &l.contests, func() (contest.Result, error) {
			if l.cfg.Verify {
				return ContestVerified(ctx, cfgs, tr, opts, l.cfg.VerifyScanEvery)
			}
			return contest.RunContext(ctx, cfgs, tr, opts)
		})
	})
	if err != nil {
		return contest.Result{}, err
	}
	return v.(contest.Result), nil
}

// ContestsConfigs evaluates a set of same-benchmark contests, in list
// order, each as its own ContestConfigs leaf spread across the Lab's
// workers. The singleflight computes each unique configuration once:
// duplicates share, and memoized and cached results are served.
func (l *Lab) ContestsConfigs(ctx context.Context, bench string, cfgsList [][]config.CoreConfig, opts contest.Options) ([]contest.Result, error) {
	return gather(ctx, l, len(cfgsList), func(i int) (contest.Result, error) {
		return l.ContestConfigs(ctx, bench, cfgsList[i], opts)
	})
}

// BestPair finds (and caches) the benchmark's best 2-way contesting pair:
// the oracle switching analysis shortlists CandidatePairs fine-grain pairs
// (plus the best pair containing the benchmark's own core), each shortlisted
// pair is contested, and the highest-IPT contest wins. IPT ties break to
// the earlier candidate (shortlist order), so the winner is deterministic.
func (l *Lab) BestPair(ctx context.Context, bench string) (contest.Result, error) {
	v, err := l.flight.do(ctx, "bestpair/"+bench, func() (any, error) {
		study, err := l.Study(ctx, bench)
		if err != nil {
			return nil, err
		}
		pairs, err := study.TopPairs(l.cfg.CandidatePairs)
		if err != nil {
			return nil, err
		}
		// Always consider the best pair that includes the benchmark's own core.
		own := -1
		for i, c := range l.cores {
			if c.Name == bench {
				own = i
			}
		}
		allPairs, err := study.TopPairs(len(l.cores) * len(l.cores))
		if err != nil {
			return nil, err
		}
		for _, pr := range allPairs {
			if pr.A == own || pr.B == own {
				pairs = append(pairs, pr)
				break
			}
		}
		seen := map[[2]int]bool{}
		var candidates [][2]int
		for _, pr := range pairs {
			key := [2]int{pr.A, pr.B}
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates = append(candidates, key)
		}
		cfgsList := make([][]config.CoreConfig, len(candidates))
		for i, pr := range candidates {
			cfgsList[i] = []config.CoreConfig{l.cores[pr[0]], l.cores[pr[1]]}
		}
		results, err := l.ContestsConfigs(ctx, bench, cfgsList, contest.Options{})
		if err != nil {
			return nil, err
		}
		sort.SliceStable(results, func(i, j int) bool { return results[i].IPT() > results[j].IPT() })
		return results[0], nil
	})
	if err != nil {
		return contest.Result{}, err
	}
	return v.(contest.Result), nil
}

// bestPairs gathers the benchmarks' best pairs.
func (l *Lab) bestPairs(ctx context.Context, benches []string) ([]contest.Result, error) {
	return gather(ctx, l, len(benches), func(b int) (contest.Result, error) {
		return l.BestPair(ctx, benches[b])
	})
}

// bestPairSweep contests every benchmark's best pair under every option set,
// indexed [bench][opts]. It gathers the best pairs, then all
// len(benches)*len(opts) contests as one flat list. contest.Options{} is the
// best pair's own leaf.
func (l *Lab) bestPairSweep(ctx context.Context, benches []string, opts []contest.Options) ([][]contest.Result, error) {
	best, err := l.bestPairs(ctx, benches)
	if err != nil {
		return nil, err
	}
	flat, err := gather(ctx, l, len(benches)*len(opts), func(i int) (contest.Result, error) {
		b := i / len(opts)
		return l.Contest(ctx, benches[b], best[b].Cores, opts[i%len(opts)])
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]contest.Result, len(benches))
	for b := range rows {
		rows[b] = flat[b*len(opts) : (b+1)*len(opts)]
	}
	return rows, nil
}

// OwnCoreIPT reports the benchmark's stand-alone IPT on its own customized
// core — the baseline of Figures 6, 7, and 8.
func (l *Lab) OwnCoreIPT(ctx context.Context, bench string) (float64, error) {
	m, err := l.Matrix(ctx)
	if err != nil {
		return 0, err
	}
	b, err := m.BenchIndex(bench)
	if err != nil {
		return 0, err
	}
	c, err := m.CoreIndex(bench)
	if err != nil {
		return 0, err
	}
	return m.IPT[b][c], nil
}
