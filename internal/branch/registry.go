package branch

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// The predictor registry is the branch half of the component SPI: a
// predictor family is registered once under a stable name, and from then on
// a Config selects it by Kind exactly like the built-ins, with the opaque
// Params string carried through to the factory. The three built-in kinds
// are pre-registered so Registered() is the complete palette; their
// construction stays on the explicit switch in Config.New (same validation,
// same error text), and the registry's factory path is taken only by
// third-party kinds. The pipeline calls every predictor, built-in or
// registered, through the Predictor interface.

// Factory builds a predictor from its configuration. The registry passes
// the full Config through, so a third-party family is free to interpret
// LogSize/HistoryBits conventionally or encode everything in Params.
type Factory func(cfg Config) (Predictor, error)

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
)

// builtinKinds are the kinds constructed by Config.New's explicit switch.
var builtinKinds = map[string]bool{"gshare": true, "bimodal": true, "tage": true}

// Register adds a predictor family under the given kind name. It returns an
// error for an empty name, a built-in name, a duplicate registration, or a
// nil factory; components registered from init functions may wrap it in
// MustRegister semantics by panicking on the error themselves.
func Register(kind string, f Factory) error {
	if kind == "" {
		return fmt.Errorf("branch: register with empty kind name")
	}
	if builtinKinds[kind] {
		return fmt.Errorf("branch: kind %q is built in", kind)
	}
	if f == nil {
		return fmt.Errorf("branch: kind %q registered with nil factory", kind)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[kind]; dup {
		return fmt.Errorf("branch: kind %q already registered", kind)
	}
	factories[kind] = f
	return nil
}

// Registered lists every constructible predictor kind — the built-ins plus
// all registered families — in sorted order.
func Registered() []string {
	regMu.RLock()
	names := make([]string, 0, len(factories)+len(builtinKinds))
	for k := range factories {
		names = append(names, k)
	}
	regMu.RUnlock()
	for k := range builtinKinds {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a registered (non-builtin) kind.
func lookup(kind string) (Factory, bool) {
	regMu.RLock()
	f, ok := factories[kind]
	regMu.RUnlock()
	return f, ok
}

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
