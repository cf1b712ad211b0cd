// Package branch implements the dynamic branch direction predictors used by
// the core model: a bimodal table of two-bit counters, a gshare predictor
// (global history XORed into the counter index), and a TAGE predictor
// (tagged tables with geometric history lengths; see tage.go).
//
// The Appendix-A core configurations of the paper do not vary the predictor,
// so every core uses the same predictor geometry by default; the package
// still exposes the parameters because the exploration tool, the predictor
// experiment family, and the ablation benches exercise them.
//
// All constructors validate geometry and return errors (never panic), so
// configurations decoded from untrusted JSON specs can be rejected without
// taking down a serve node.
package branch

import "fmt"

// Predictor predicts conditional branch directions.
//
// Predict returns the predicted direction for the branch at pc. Update
// trains the predictor with the resolved outcome; it must be called exactly
// once per predicted branch, in program order (the trace-driven core model
// resolves branches in program order with respect to the predictor because
// it never fetches wrong-path instructions).
type Predictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
	// Reset clears all learned state.
	Reset()
}

// counter is a saturating two-bit counter; values 2 and 3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a per-PC table of two-bit counters.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^logSize counters,
// initialized to weakly taken. It returns an error on invalid geometry.
func NewBimodal(logSize int) (*Bimodal, error) {
	if err := checkBimodal(logSize); err != nil {
		return nil, err
	}
	b := &Bimodal{
		table: make([]counter, 1<<logSize),
		mask:  1<<logSize - 1,
	}
	b.Reset()
	return b, nil
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// Reset implements Predictor.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 2 // weakly taken
	}
}

// Gshare is a global-history predictor: the counter index is the branch PC
// XORed with the global history register.
type Gshare struct {
	table       []counter
	mask        uint64
	history     uint64
	historyBits int
}

// NewGshare returns a gshare predictor with 2^logSize counters and the given
// global history length. historyBits must not exceed logSize. It returns an
// error on invalid geometry.
func NewGshare(logSize, historyBits int) (*Gshare, error) {
	if err := checkGshare(logSize, historyBits); err != nil {
		return nil, err
	}
	g := &Gshare{
		table:       make([]counter, 1<<logSize),
		mask:        1<<logSize - 1,
		historyBits: historyBits,
	}
	g.Reset()
	return g, nil
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor. It trains the counter and shifts the outcome
// into the global history.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= 1<<g.historyBits - 1
}

// Reset implements Predictor.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = 2
	}
	g.history = 0
}

// Config selects and sizes a predictor.
type Config struct {
	// Kind is "gshare", "bimodal", or "tage".
	Kind string
	// LogSize is the log2 of the counter table size (for TAGE: the base
	// bimodal table).
	LogSize int
	// HistoryBits is the global history length (gshare only).
	HistoryBits int

	// TAGE geometry (Kind "tage" only; must be zero otherwise).

	// TageTables is the number of tagged components.
	TageTables int
	// TageLogSize is the log2 of each tagged component's entry count.
	TageLogSize int
	// TageTagBits is the partial-tag width of the tagged entries.
	TageTagBits int
	// TageMinHist and TageMaxHist bound the geometric history-length
	// series (TageMaxHist <= 64).
	TageMinHist int
	TageMaxHist int

	// Params is an opaque parameter string passed through to registered
	// predictor factories (see Register). The built-in kinds take their
	// geometry from the typed fields above and reject a non-empty Params.
	Params string `json:",omitempty"`
}

// DefaultConfig is the predictor used by every Appendix-A core: a 4K-entry
// gshare with 10 bits of global history.
func DefaultConfig() Config {
	return Config{Kind: "gshare", LogSize: 12, HistoryBits: 10}
}

// DefaultTAGEConfig is the reference TAGE geometry used by the predictor
// experiments and the explore menu: a 4K-entry bimodal base plus six
// 512-entry tagged tables with 9-bit tags and history lengths spanning
// 4..64 — long enough to separate interleaved loop patterns that outrun a
// gshare history register.
func DefaultTAGEConfig() Config {
	return Config{
		Kind: "tage", LogSize: 12,
		TageTables: 6, TageLogSize: 9, TageTagBits: 9,
		TageMinHist: 4, TageMaxHist: 64,
	}
}

// New builds the predictor described by the config, resolving its Kind
// through the registry (see Register). All geometry problems surface as
// errors.
func (c Config) New() (Predictor, error) { return predictors.Build(c.Kind, c) }

// Validate reports the error New would return for the config. A built-in
// kind is checked without allocating a table, so an admission check on the
// largest geometry costs nothing; a registered kind can only be checked by
// its factory, so Validate builds it.
func (c Config) Validate() error { return predictors.Validate(c.Kind, c) }

// checkGshareConfig, checkBimodalConfig and checkTAGEConfig are the
// built-in kinds' registry checks: every check their constructors make,
// on a Config, without allocating a table.
func checkGshareConfig(c Config) error {
	if c.hasTageGeometry() {
		return fmt.Errorf("branch: gshare config with TAGE geometry %+v", c)
	}
	if c.Params != "" {
		return fmt.Errorf("branch: gshare config with opaque params %q", c.Params)
	}
	return checkGshare(c.LogSize, c.HistoryBits)
}

func checkBimodalConfig(c Config) error {
	if c.HistoryBits != 0 || c.hasTageGeometry() {
		return fmt.Errorf("branch: bimodal config with extraneous geometry %+v", c)
	}
	if c.Params != "" {
		return fmt.Errorf("branch: bimodal config with opaque params %q", c.Params)
	}
	return checkBimodal(c.LogSize)
}

func checkTAGEConfig(c Config) error {
	if c.HistoryBits != 0 {
		return fmt.Errorf("branch: tage config sets gshare HistoryBits %d", c.HistoryBits)
	}
	if c.Params != "" {
		return fmt.Errorf("branch: tage config with opaque params %q", c.Params)
	}
	return checkTAGE(c.LogSize, c.TageTables, c.TageLogSize, c.TageTagBits, c.TageMinHist, c.TageMaxHist)
}

// checkBimodal and checkGshare are NewBimodal's and NewGshare's geometry
// checks, shared with Config.Validate.
func checkBimodal(logSize int) error {
	if logSize < 1 || logSize > 24 {
		return fmt.Errorf("branch: bimodal logSize %d out of range [1,24]", logSize)
	}
	return nil
}

func checkGshare(logSize, historyBits int) error {
	if logSize < 1 || logSize > 24 {
		return fmt.Errorf("branch: gshare logSize %d out of range [1,24]", logSize)
	}
	if historyBits < 0 || historyBits > logSize {
		return fmt.Errorf("branch: gshare historyBits %d out of range for logSize %d", historyBits, logSize)
	}
	return nil
}

func (c Config) hasTageGeometry() bool {
	return c.TageTables != 0 || c.TageLogSize != 0 || c.TageTagBits != 0 ||
		c.TageMinHist != 0 || c.TageMaxHist != 0
}
