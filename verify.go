package archcontest

// Verified run facades: the same Run / ContestRun entry points, with the
// full verification subsystem riding along. Every executed cycle is checked
// against the engine's structural invariants, every retirement is replayed
// against the in-order oracle, and every contested run additionally checks
// the GRB protocol, bounded lagging distance, leader accounting and the
// merged store stream. A clean run returns the ordinary result; any
// violation aborts with an error listing what broke.
//
// Verified runs are for tests, fuzzing and debugging: the checks cost an
// O(window) scan per core-cycle (tune with VerifyOptions.ScanEvery), and
// they bypass every result cache by construction since the checks happen
// during execution.

import (
	"context"

	"archcontest/internal/experiments"
	"archcontest/internal/oracle"
)

// VerifyOptions tunes the verification layer of a verified run.
type VerifyOptions struct {
	// ScanEvery is the cycle stride of the O(window) structural scans; the
	// O(1) per-cycle checks always run. 0 scans every cycle.
	ScanEvery int64
}

// OracleExecution computes the in-order reference execution of a trace:
// the ground-truth architectural results every conforming run must
// reproduce.
func OracleExecution(tr *Trace) *oracle.Execution { return oracle.Run(tr) }

// RunVerified executes a trace on a single core with the invariant checker
// and differential oracle attached. It returns the run's result — identical
// to Run's — and an error describing every invariant violation observed, if
// any.
func RunVerified(cfg CoreConfig, tr *Trace, opts ...RunOptions) (RunResult, error) {
	var o RunOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return RunVerifiedWith(cfg, tr, o, VerifyOptions{})
}

// RunVerifiedWith is RunVerified with explicit verification tuning.
func RunVerifiedWith(cfg CoreConfig, tr *Trace, o RunOptions, vo VerifyOptions) (RunResult, error) {
	return experiments.RunVerified(context.Background(), cfg, tr, o, vo.ScanEvery)
}

// ContestRunVerified executes a contested run with the full verification
// subsystem attached: per-core invariant checkers plus the system observer
// asserting the contest protocol (bounded lag, GRB injection timing, leader
// accounting, store-merge/oracle prefix, exception rendezvous). It returns
// the run's result — identical to ContestRun's — and an error describing
// every violation observed, if any.
func ContestRunVerified(cfgs []CoreConfig, tr *Trace, opts ContestOptions) (ContestResult, error) {
	return ContestRunVerifiedWith(cfgs, tr, opts, VerifyOptions{})
}

// ContestRunVerifiedWith is ContestRunVerified with explicit verification
// tuning.
func ContestRunVerifiedWith(cfgs []CoreConfig, tr *Trace, opts ContestOptions, vo VerifyOptions) (ContestResult, error) {
	return experiments.ContestVerified(context.Background(), cfgs, tr, opts, vo.ScanEvery)
}
