package branch

import (
	"fmt"
	"runtime"

	"archcontest/internal/registry"
)

// The predictor registry is the branch half of the component SPI: a
// predictor family is registered once under a stable name, and from then on
// a Config selects it by Kind, with the opaque Params string carried through
// to the factory. The three built-in kinds register themselves below like
// any other family, so Registered() is the complete palette and Config.New
// builds every predictor one way; the pipeline calls each through the
// Predictor interface.

// Factory builds a predictor from its configuration. The registry passes
// the full Config through, so a third-party family is free to interpret
// LogSize/HistoryBits conventionally or encode everything in Params.
type Factory func(cfg Config) (Predictor, error)

var predictors = registry.New[Config, Predictor]("branch", "predictor kind")

// The built-in kinds carry checks, so Config.Validate never allocates
// their tables.
func init() {
	for _, err := range []error{
		predictors.Register("gshare", func(c Config) (Predictor, error) {
			return NewGshare(c.LogSize, c.HistoryBits)
		}, checkGshareConfig),
		predictors.Register("bimodal", func(c Config) (Predictor, error) {
			return NewBimodal(c.LogSize)
		}, checkBimodalConfig),
		predictors.Register("tage", func(c Config) (Predictor, error) {
			return NewTAGE(c.LogSize, c.TageTables, c.TageLogSize, c.TageTagBits, c.TageMinHist, c.TageMaxHist)
		}, checkTAGEConfig),
	} {
		if err != nil {
			panic(err)
		}
	}
}

// Register adds a predictor family under the given kind name. It returns an
// error for an empty name, a taken name (the built-ins included), or a nil
// factory; components registered from init functions may wrap it in
// MustRegister semantics by panicking on the error themselves.
func Register(kind string, f Factory) error { return predictors.Register(kind, f, nil) }

// Registered lists every constructible predictor kind — the built-ins plus
// all registered families — in sorted order.
func Registered() []string { return predictors.Names() }

// RepresentativeConfig returns a ready-to-run configuration for the named
// kind: the reference geometry for the built-ins, and a bare Config{Kind:
// name} for registered families (whose factories must accept their zero
// geometry, possibly steered by Params). The leaderboard harness uses this
// to round-robin every registered kind without knowing their parameters.
func RepresentativeConfig(kind string) Config {
	switch kind {
	case "gshare":
		return DefaultConfig()
	case "bimodal":
		return Config{Kind: "bimodal", LogSize: 12}
	case "tage":
		return DefaultTAGEConfig()
	default:
		return Config{Kind: kind}
	}
}

// conformanceStimulus drives n deterministic (pc, taken) pairs through fn.
// The mix deliberately includes aliasing PCs and correlated directions so
// history-based predictors exercise their tables.
func conformanceStimulus(n int, fn func(pc uint64, taken bool)) {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := (x % 97) * 4
		taken := x&3 != 0 == (i%7 < 4)
		fn(pc, taken)
	}
}

// Conformance checks the SPI contract for the predictor the config
// describes: construction succeeds; two independent instances predict
// identically over a deterministic stimulus (no hidden global or
// time-dependent state); Reset restores the cold-start sequence; and the
// hot methods Predict and Update allocate nothing. Run it once per
// registered component — the harness assumes these properties.
func Conformance(cfg Config) error {
	a, err := cfg.New()
	if err != nil {
		return fmt.Errorf("branch: conformance: construction failed: %w", err)
	}
	b, err := cfg.New()
	if err != nil {
		return fmt.Errorf("branch: conformance: second construction failed: %w", err)
	}
	const n = 4096
	cold := make([]bool, 0, n)
	diverged := false
	conformanceStimulus(n, func(pc uint64, taken bool) {
		pa, pb := a.Predict(pc), b.Predict(pc)
		if pa != pb {
			diverged = true
		}
		cold = append(cold, pa)
		a.Update(pc, taken)
		b.Update(pc, taken)
	})
	if diverged {
		return fmt.Errorf("branch: conformance: two instances of %q diverged on identical stimulus", cfg.Kind)
	}
	a.Reset()
	i, resetDiverged := 0, false
	conformanceStimulus(n, func(pc uint64, taken bool) {
		if a.Predict(pc) != cold[i] {
			resetDiverged = true
		}
		i++
		a.Update(pc, taken)
	})
	if resetDiverged {
		return fmt.Errorf("branch: conformance: Reset of %q does not reproduce the cold-start sequence", cfg.Kind)
	}
	// Allocation fence: after a warm-up pass (lazy tables may allocate on
	// first touch), Predict/Update must be allocation-free. Mallocs is a
	// process-global counter, so the window runs at GOMAXPROCS(1): no other
	// goroutine runs beside it to allocate between the readings.
	b.Reset()
	step := func(pc uint64, taken bool) {
		b.Predict(pc)
		b.Update(pc, taken)
	}
	conformanceStimulus(n, step)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conformanceStimulus(n, step)
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		return fmt.Errorf("branch: conformance: %q allocated %d objects across %d Predict/Update pairs", cfg.Kind, d, n)
	}
	return nil
}
