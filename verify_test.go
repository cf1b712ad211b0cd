package archcontest

// The verification golden suite: every configuration the golden-equivalence
// tests lock is re-run with the full verification subsystem attached — the
// per-cycle invariant checker, the differential oracle, and (contested) the
// system observer. `go test -run Invariant ./...` selects this suite.

import (
	"reflect"
	"testing"

	"archcontest/internal/branch"
	"archcontest/internal/invariant"
	"archcontest/internal/oracle"
	"archcontest/internal/sim"
)

// verifyScanEvery strides the O(window) structural scans in the golden
// suite; the O(1) per-cycle checks still run every cycle. 7 is coprime to
// the engine's power-of-two structure sizes so the scan phase drifts across
// all window alignments.
const verifyScanEvery = 7

func TestInvariantGoldenSingleCore(t *testing.T) {
	benches := []string{"gcc", "mcf", "bzip", "crafty", "twolf"}
	cores := []string{"bzip", "crafty", "gap", "gcc", "gzip", "mcf", "twolf", "vpr"}
	for _, b := range benches {
		tr := MustGenerateTrace(b, goldenInsts)
		exec := oracle.Run(tr)
		for _, cn := range cores {
			cfg := MustPaletteCore(cn)

			// Invariant-checked run through the facade.
			res, err := RunVerifiedWith(cfg, tr, RunOptions{}, VerifyOptions{ScanEvery: verifyScanEvery})
			if err != nil {
				t.Fatalf("%s on %s: %v", b, cn, err)
			}
			if res.Insts != int64(tr.Len()) {
				t.Fatalf("%s on %s: retired %d of %d", b, cn, res.Insts, tr.Len())
			}

			// Differential oracle: the recorded retirement stream must
			// replay the reference execution bit for bit.
			chk := invariant.NewCoreChecker(tr, invariant.Options{
				OnViolation:       func(err error) { t.Fatalf("%s on %s: %v", b, cn, err) },
				ScanEvery:         1 << 30, // differential only; scans covered above
				RecordRetirements: true,
			})
			if _, err := Run(cfg, tr, RunOptions{Checker: chk}); err != nil {
				t.Fatalf("%s on %s: %v", b, cn, err)
			}
			sum, err := exec.ReplayChecksum(chk.Retirements())
			if err != nil {
				t.Fatalf("%s on %s: %v", b, cn, err)
			}
			if sum != exec.Checksum() {
				t.Fatalf("%s on %s: replay checksum %#x != oracle %#x", b, cn, sum, exec.Checksum())
			}
			if got := chk.Oracle().Checksum(); got != exec.Checksum() {
				t.Fatalf("%s on %s: lockstep checksum %#x != oracle %#x", b, cn, got, exec.Checksum())
			}
		}
	}
}

func TestInvariantGoldenContested(t *testing.T) {
	for _, g := range goldenContests {
		cfgs := g.configs()
		for _, b := range goldenContestBenches {
			tr := MustGenerateTrace(b, goldenInsts)
			res, err := ContestRunVerifiedWith(cfgs, tr, g.opts, VerifyOptions{ScanEvery: verifyScanEvery})
			if err != nil {
				t.Fatalf("%s: %v", g.name(b), err)
			}
			if res.Insts != int64(tr.Len()) {
				t.Fatalf("%s: retired %d of %d", g.name(b), res.Insts, tr.Len())
			}
		}
	}
}

// TestInvariantGoldenPredictors re-runs the predictor-palette golden legs
// under the full verification subsystem: bimodal and TAGE own cores with
// the differential oracle attached, then the gshare-vs-TAGE contest under
// the kill-refork state-transfer model (warm-up charge, cold predictor and
// caches, lead-change accounting) with the invariant checker and system
// observer watching every cycle.
func TestInvariantGoldenPredictors(t *testing.T) {
	for _, b := range []string{"gcc", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, p := range goldenPredictors {
			cfg := MustPaletteCore(b)
			cfg.Name = b + "-" + p.name
			cfg.Predictor = p.cfg
			res, err := RunVerifiedWith(cfg, tr, RunOptions{}, VerifyOptions{ScanEvery: verifyScanEvery})
			if err != nil {
				t.Fatalf("%s on %s: %v", b, cfg.Name, err)
			}
			if res.Insts != int64(tr.Len()) {
				t.Fatalf("%s on %s: retired %d of %d", b, cfg.Name, res.Insts, tr.Len())
			}
		}
		cfgG := MustPaletteCore(b)
		cfgT := cfgG
		cfgT.Name = b + "-tage"
		cfgT.Predictor = branch.DefaultTAGEConfig()
		opts := ContestOptions{
			ExceptionEvery: 640, ExceptionKillRefork: true,
			ReforkWarmupNs: 250, ReforkColdPredictor: true, ReforkColdCaches: true,
			LeadChangeWarmupNs: 25,
		}
		res, err := ContestRunVerifiedWith([]CoreConfig{cfgG, cfgT}, tr, opts, VerifyOptions{ScanEvery: verifyScanEvery})
		if err != nil {
			t.Fatalf("%s warm-up contest: %v", b, err)
		}
		if res.Insts != int64(tr.Len()) {
			t.Fatalf("%s warm-up contest: retired %d of %d", b, res.Insts, tr.Len())
		}
		if res.StateTransfer <= 0 {
			t.Errorf("%s warm-up contest: no state-transfer cost recorded (%+v)", b, res)
		}
	}
}

// TestInvariantGoldenComponents re-runs the component-palette golden legs
// under the full verification subsystem: every non-default replacement
// policy and prefetcher variant stand-alone with the differential oracle
// attached, then a component-equipped core contested against the default
// core under kill-refork cold caches with the invariant checker watching.
func TestInvariantGoldenComponents(t *testing.T) {
	for _, b := range []string{"gcc", "twolf"} {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, c := range goldenComponents {
			cfg := componentCore(b, c.name, c.repl, c.pref)
			res, err := RunVerifiedWith(cfg, tr, RunOptions{}, VerifyOptions{ScanEvery: verifyScanEvery})
			if err != nil {
				t.Fatalf("%s on %s: %v", b, cfg.Name, err)
			}
			if res.Insts != int64(tr.Len()) {
				t.Fatalf("%s on %s: retired %d of %d", b, cfg.Name, res.Insts, tr.Len())
			}
		}
		cfgs := []CoreConfig{MustPaletteCore(b), componentCore(b, "srrip-stride", "srrip", "stride")}
		opts := ContestOptions{ExceptionEvery: 640, ExceptionKillRefork: true, ReforkWarmupNs: 250, ReforkColdCaches: true}
		res, err := ContestRunVerifiedWith(cfgs, tr, opts, VerifyOptions{ScanEvery: verifyScanEvery})
		if err != nil {
			t.Fatalf("%s component contest: %v", b, err)
		}
		if res.Insts != int64(tr.Len()) {
			t.Fatalf("%s component contest: retired %d of %d", b, res.Insts, tr.Len())
		}
	}
}

// TestInvariantVerifiedMatchesPlain locks that attaching the verification
// subsystem never perturbs a run: verified and plain results are identical,
// single and contested.
func TestInvariantVerifiedMatchesPlain(t *testing.T) {
	tr := MustGenerateTrace("twolf", goldenInsts)
	cfg := MustPaletteCore("twolf")
	plain, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := RunVerified(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, verified) {
		t.Errorf("verified single run diverges:\nplain:    %+v\nverified: %+v", plain, verified)
	}

	cfgs := []CoreConfig{MustPaletteCore("twolf"), MustPaletteCore("vpr")}
	cplain, err := ContestRun(cfgs, tr, ContestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cverified, err := ContestRunVerified(cfgs, tr, ContestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cplain.Time != cverified.Time || cplain.Winner != cverified.Winner ||
		cplain.LeadChanges != cverified.LeadChanges {
		t.Errorf("verified contested run diverges:\nplain:    %+v\nverified: %+v", cplain, cverified)
	}
}

// TestInvariantDetectsViolation locks that the checker is live: a checker
// wired to a mismatched trace must report, not silently pass.
func TestInvariantDetectsViolation(t *testing.T) {
	// A checker built over a shorter trace must trip its oracle
	// desynchronization check the moment the core retires past the
	// reference execution's end.
	tr := MustGenerateTrace("gcc", 2000)
	short := MustGenerateTrace("gcc", 1000)
	var violations int
	chk := invariant.NewCoreChecker(short, invariant.Options{
		OnViolation: func(error) { violations++ },
		ScanEvery:   1 << 30, // the scans read the core's own trace; only the oracle sees `short`
	})
	if _, err := Run(MustPaletteCore("gcc"), tr, RunOptions{Checker: chk}); err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Fatal("checker against a shorter reference trace reported nothing")
	}

	// And the differential signal proper: two different workloads of equal
	// length must have different oracle checksums, or the replay check
	// could never distinguish them.
	if oracle.Run(tr).Checksum() == oracle.Run(MustGenerateTrace("mcf", 2000)).Checksum() {
		t.Fatal("oracle checksums of different workloads collide")
	}
}

var _ = sim.EngineVersion // keep the import pinned to the engine the suite verifies
