package experiments

// The leaf path. Every number the reproduction prints is built from leaves:
// one trace on one core, or one contest of cores coupled through the global
// result bus. Every layer that executes leaves — the Lab, spec.Execute,
// explore and the root facade's verified runs — goes through this file: one
// content address per leaf kind, one cache rule, one verified runner per
// kind and one violation collector.

import (
	"context"
	"errors"
	"fmt"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/invariant"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
)

// RunKey derives the content address of one single-core leaf run: engine
// version, trace fingerprint and shape, core configuration, run options.
// Attached checkers are not part of it.
func RunKey(tr *trace.Trace, cfg config.CoreConfig, opts sim.RunOptions) string {
	return resultcache.Key("run", sim.EngineVersion, tr.Fingerprint(), tr.Name(), tr.Len(), cfg, opts)
}

// ContestKey derives the content address of one contested leaf run. A zero
// LatencyNs is keyed as the default latency the engine runs it at, so a
// contest that leaves the latency unset shares its entry with the same
// contest that names the default.
func ContestKey(tr *trace.Trace, cfgs []config.CoreConfig, opts contest.Options) string {
	if opts.LatencyNs == 0 {
		opts.LatencyNs = contest.DefaultLatencyNs
	}
	return resultcache.Key("contest", sim.EngineVersion, tr.Fingerprint(), tr.Name(), tr.Len(), cfgs, opts)
}

// Cached is the leaf cache rule. With a cache and without bypass, a hit is
// served without calling run (a caller that takes a worker slot inside run
// takes none for a hit), and a miss calls run and stores only a successful
// result. bypass, set for verified or recorded leaves, skips the cache in
// both directions: a hit would skip the checks or the recording, and such a
// result must not launder into plain campaigns. A progress hook is no
// reason to bypass. lookup, if non-nil, observes every cache lookup.
func Cached[T any](cache *resultcache.Cache, key string, bypass bool, lookup func(hit bool), run func() (T, error)) (T, error) {
	if cache == nil || bypass {
		return run()
	}
	var r T
	hit := cache.Get(key, &r)
	if lookup != nil {
		lookup(hit)
	}
	if hit {
		return r, nil
	}
	r, err := run()
	if err != nil {
		return r, err
	}
	cache.Put(key, r)
	return r, nil
}

// RunVerified executes one single-core leaf with the invariant checker and
// differential oracle attached beside opts.Checker. It returns the run's
// result, identical to the unverified run's, and an error listing the
// violations observed, if any. scanEvery strides the checker's O(window)
// structural scans (0 scans every cycle).
func RunVerified(ctx context.Context, cfg config.CoreConfig, tr *trace.Trace, opts sim.RunOptions, scanEvery int64) (sim.Result, error) {
	var v violations
	chk := invariant.NewCoreChecker(tr, invariant.Options{OnViolation: v.add, ScanEvery: scanEvery})
	opts.Checker = obs.MultiChecker(opts.Checker, chk)
	r, err := sim.RunContext(ctx, cfg, tr, opts)
	if err != nil {
		return r, err
	}
	chk.Finish(int64(tr.Len()))
	return r, v.err(fmt.Sprintf("run of %s on %s", tr.Name(), cfg.Name))
}

// ContestVerified executes one contested leaf with per-core invariant
// checkers and the system observer attached beside opts.Observer. It
// returns the contest's result, identical to the unverified contest's, and
// an error listing the violations observed, if any.
func ContestVerified(ctx context.Context, cfgs []config.CoreConfig, tr *trace.Trace, opts contest.Options, scanEvery int64) (contest.Result, error) {
	var v violations
	sys := invariant.NewSystemObserver(tr, invariant.Options{OnViolation: v.add, ScanEvery: scanEvery})
	opts.Observer = obs.MultiObserver(opts.Observer, sys)
	r, err := contest.RunContext(ctx, cfgs, tr, opts)
	if err != nil {
		return r, err
	}
	sys.Finish(r)
	return r, v.err(fmt.Sprintf("contest of %s", tr.Name()))
}

// maxViolations caps the violations one verified leaf lists, so a
// systematically broken run cannot build an unbounded error chain; the
// rest are only counted.
const maxViolations = 16

// violations collects the checker violations of one verified leaf.
type violations struct {
	errs []error
	more int
}

func (v *violations) add(err error) {
	if len(v.errs) < maxViolations {
		v.errs = append(v.errs, err)
	} else {
		v.more++
	}
}

// err reports the violations of the verified leaf what, or nil.
func (v *violations) err(what string) error {
	if len(v.errs) == 0 {
		return nil
	}
	errs := v.errs
	if v.more > 0 {
		errs = append(errs, fmt.Errorf("... and %d further violations", v.more))
	}
	return fmt.Errorf("experiments: verified %s: %w", what, errors.Join(errs...))
}
