package branch

import (
	"testing"
	"testing/quick"

	"archcontest/internal/xrand"
)

func mustBimodal(t *testing.T, logSize int) *Bimodal {
	t.Helper()
	b, err := NewBimodal(logSize)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustGshare(t *testing.T, logSize, historyBits int) *Gshare {
	t.Helper()
	g, err := NewGshare(logSize, historyBits)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustTAGE(t *testing.T, cfg Config) *TAGE {
	t.Helper()
	p, err := cfg.New()
	if err != nil {
		t.Fatal(err)
	}
	return p.(*TAGE)
}

func TestBimodalLearnsBias(t *testing.T) {
	b := mustBimodal(t, 10)
	pc := uint64(0x400)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal failed to learn always-taken")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Error("bimodal failed to learn always-not-taken")
	}
}

func TestBimodalIsolation(t *testing.T) {
	b := mustBimodal(t, 10)
	// Two PCs that map to different table entries.
	pcA, pcB := uint64(0x400), uint64(0x404)
	for i := 0; i < 10; i++ {
		b.Update(pcA, true)
		b.Update(pcB, false)
	}
	if !b.Predict(pcA) || b.Predict(pcB) {
		t.Error("per-PC counters interfere for non-aliasing PCs")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g := mustGshare(t, 12, 8)
	pc := uint64(0x400)
	pattern := []bool{true, true, false, true, false, false}
	// Train over the repeating pattern.
	for round := 0; round < 200; round++ {
		for _, taken := range pattern {
			g.Update(pc, taken)
		}
	}
	// After training, predictions should track the pattern exactly.
	correct := 0
	for round := 0; round < 10; round++ {
		for _, taken := range pattern {
			if g.Predict(pc) == taken {
				correct++
			}
			g.Update(pc, taken)
		}
	}
	if correct < 55 { // 60 predictions total
		t.Errorf("gshare got %d/60 on a learnable pattern", correct)
	}
}

func TestGshareBeatsBimodalOnPattern(t *testing.T) {
	// An alternating branch defeats two-bit counters but is trivial with
	// history.
	g := mustGshare(t, 12, 8)
	b := mustBimodal(t, 12)
	pc := uint64(0x80)
	gCorrect, bCorrect := 0, 0
	taken := false
	for i := 0; i < 2000; i++ {
		taken = !taken
		if g.Predict(pc) == taken {
			gCorrect++
		}
		if b.Predict(pc) == taken {
			bCorrect++
		}
		g.Update(pc, taken)
		b.Update(pc, taken)
	}
	if gCorrect <= bCorrect {
		t.Errorf("gshare %d should beat bimodal %d on alternating branch", gCorrect, bCorrect)
	}
	if gCorrect < 1900 {
		t.Errorf("gshare only %d/2000 on alternating branch", gCorrect)
	}
}

func TestReset(t *testing.T) {
	g := mustGshare(t, 10, 6)
	pc := uint64(0x40)
	for i := 0; i < 20; i++ {
		g.Update(pc, false)
	}
	if g.Predict(pc) {
		t.Fatal("did not learn not-taken")
	}
	g.Reset()
	if !g.Predict(pc) {
		t.Error("reset should restore weakly-taken default")
	}
}

func TestRandomBranchesNearChance(t *testing.T) {
	g := mustGshare(t, 12, 10)
	r := xrand.New(77)
	correct := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pc := uint64(r.Intn(64)) * 4
		taken := r.Bool(0.5)
		if g.Predict(pc) == taken {
			correct++
		}
		g.Update(pc, taken)
	}
	acc := float64(correct) / n
	if acc < 0.45 || acc > 0.58 {
		t.Errorf("accuracy on random outcomes %g, expected near 0.5", acc)
	}
}

func TestConfigNew(t *testing.T) {
	for _, c := range []Config{
		DefaultConfig(),
		DefaultTAGEConfig(),
		{Kind: "bimodal", LogSize: 10},
		{Kind: "gshare", LogSize: 14, HistoryBits: 12},
		{Kind: "tage", LogSize: 10, TageTables: 4, TageLogSize: 8, TageTagBits: 8, TageMinHist: 2, TageMaxHist: 32},
		{Kind: "tage", LogSize: 8, TageTables: 1, TageLogSize: 6, TageTagBits: 6, TageMinHist: 5, TageMaxHist: 5},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v: Validate: %v", c, err)
		}
		p, err := c.New()
		if err != nil {
			t.Errorf("config %+v: %v", c, err)
			continue
		}
		p.Predict(0x40)
		p.Update(0x40, true)
	}
}

func TestConfigNewRejectsInvalid(t *testing.T) {
	for _, c := range []Config{
		{Kind: "nonsense", LogSize: 10},
		{Kind: "gshare", LogSize: 0},
		{Kind: "gshare", LogSize: 10, HistoryBits: 20},
		{Kind: "bimodal", LogSize: 30},
		{Kind: "bimodal", LogSize: 10, HistoryBits: 4},
		{Kind: "gshare", LogSize: 12, HistoryBits: 10, TageTables: 3},
		{Kind: "tage", LogSize: 12, TageTables: 0, TageLogSize: 9, TageTagBits: 9, TageMinHist: 4, TageMaxHist: 64},
		{Kind: "tage", LogSize: 12, TageTables: 6, TageLogSize: 9, TageTagBits: 9, TageMinHist: 4, TageMaxHist: 80},
		{Kind: "tage", LogSize: 12, TageTables: 6, TageLogSize: 9, TageTagBits: 2, TageMinHist: 4, TageMaxHist: 64},
		{Kind: "tage", LogSize: 12, TageTables: 6, TageLogSize: 9, TageTagBits: 9, TageMinHist: 60, TageMaxHist: 64},
		{Kind: "tage", LogSize: 12, TageTables: 6, TageLogSize: 9, TageTagBits: 9, TageMinHist: 4, TageMaxHist: 64, HistoryBits: 10},
		// TestNewReturnsErrorsOnBadSizes's geometries, through a Config.
		{Kind: "bimodal", LogSize: 0},
		{Kind: "bimodal", LogSize: 25},
		{Kind: "gshare", LogSize: 10, HistoryBits: 11},
		{Kind: "gshare", LogSize: 25, HistoryBits: 10},
		{Kind: "tage", LogSize: 12, TageTables: 16, TageLogSize: 9, TageTagBits: 9, TageMinHist: 4, TageMaxHist: 64},
		{Kind: "tage", LogSize: 12, TageTables: 6, TageLogSize: 9, TageTagBits: 9, TageMinHist: 4, TageMaxHist: 65},
		{Kind: "tage", LogSize: 25, TageTables: 6, TageLogSize: 9, TageTagBits: 9, TageMinHist: 4, TageMaxHist: 64},
		{Kind: "tage", LogSize: 12, TageTables: 6, TageLogSize: 21, TageTagBits: 9, TageMinHist: 4, TageMaxHist: 64},
		{Kind: "gshare", LogSize: 12, HistoryBits: 10, Params: "x"},
		{Kind: "bimodal", LogSize: 12, Params: "x"},
		{Kind: "tage", LogSize: 12, TageTables: 6, TageLogSize: 9, TageTagBits: 9, TageMinHist: 4, TageMaxHist: 64, Params: "x"},
	} {
		_, err := c.New()
		if err == nil {
			t.Errorf("config %+v accepted", c)
			continue
		}
		if verr := c.Validate(); verr == nil || verr.Error() != err.Error() {
			t.Errorf("config %+v: Validate = %v, want New's error %v", c, verr, err)
		}
	}
}

// The constructors report bad geometry as errors, never panics, like
// Config.New: a hostile spec must not take down a serve node through any
// path that reaches a constructor directly.
func TestNewReturnsErrorsOnBadSizes(t *testing.T) {
	if _, err := NewBimodal(0); err == nil {
		t.Error("NewBimodal(0): expected error")
	}
	if _, err := NewBimodal(25); err == nil {
		t.Error("NewBimodal(25): expected error")
	}
	if _, err := NewGshare(0, 0); err == nil {
		t.Error("NewGshare(0,0): expected error")
	}
	if _, err := NewGshare(10, 11); err == nil {
		t.Error("NewGshare(10,11): expected error")
	}
	if _, err := NewGshare(25, 10); err == nil {
		t.Error("NewGshare(25,10): expected error")
	}
	if _, err := NewTAGE(12, 16, 9, 9, 4, 64); err == nil {
		t.Error("NewTAGE with 16 tables: expected error")
	}
	if _, err := NewTAGE(12, 6, 9, 9, 4, 65); err == nil {
		t.Error("NewTAGE with 65-bit history: expected error")
	}
}

func TestTAGELearnsBias(t *testing.T) {
	p := mustTAGE(t, DefaultTAGEConfig())
	pc := uint64(0x400)
	for i := 0; i < 16; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Error("tage failed to learn always-taken")
	}
	for i := 0; i < 16; i++ {
		p.Update(pc, false)
	}
	if p.Predict(pc) {
		t.Error("tage failed to learn always-not-taken")
	}
}

// TAGE's reason to exist: a pattern whose period outruns the gshare history
// register. 24 static sites each repeating a 4-bit pattern, visited
// round-robin, give a composite global-history period of 96 — far past
// gshare's 10-bit window, comfortably inside TAGE's 64-bit maximum history.
// This mirrors how the synthetic workloads interleave branch sites.
func TestTAGEBeatsGshareOnInterleavedSites(t *testing.T) {
	type site struct {
		pc      uint64
		pattern uint32
		phase   int
	}
	r := xrand.New(42)
	sites := make([]site, 24)
	for i := range sites {
		sites[i] = site{
			pc:      uint64(i+1) << 6,
			pattern: uint32(r.Intn(14) + 1), // at least one taken, one not
		}
	}
	tage := mustTAGE(t, DefaultTAGEConfig())
	gs := mustGshare(t, 12, 10) // the Appendix-A default
	next := func(s *site) bool {
		taken := s.pattern>>s.phase&1 == 1
		s.phase = (s.phase + 1) % 4
		return taken
	}
	tCorrect, gCorrect := 0, 0
	const warm, measured = 4000, 8000
	for i := 0; i < warm+measured; i++ {
		s := &sites[i%len(sites)]
		taken := next(s)
		if i >= warm {
			if tage.Predict(s.pc) == taken {
				tCorrect++
			}
			if gs.Predict(s.pc) == taken {
				gCorrect++
			}
		}
		tage.Update(s.pc, taken)
		gs.Update(s.pc, taken)
	}
	if tCorrect <= gCorrect {
		t.Errorf("tage %d/%d should beat gshare %d/%d on interleaved long-period sites",
			tCorrect, measured, gCorrect, measured)
	}
	if float64(tCorrect)/measured < 0.95 {
		t.Errorf("tage only %d/%d on a fully learnable pattern", tCorrect, measured)
	}
}

// Update must work without a preceding Predict: the contested cores train
// on injected branch results they never predicted.
func TestTAGEUpdateWithoutPredict(t *testing.T) {
	p := mustTAGE(t, DefaultTAGEConfig())
	pc := uint64(0x88)
	taken := false
	for i := 0; i < 400; i++ {
		taken = !taken
		p.Update(pc, taken)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		taken = !taken
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
	}
	if correct < 95 {
		t.Errorf("tage %d/100 on alternating branch after update-only training", correct)
	}
}

func TestTAGEReset(t *testing.T) {
	p := mustTAGE(t, DefaultTAGEConfig())
	pc := uint64(0x40)
	for i := 0; i < 50; i++ {
		p.Update(pc, false)
	}
	if p.Predict(pc) {
		t.Fatal("did not learn not-taken")
	}
	p.Reset()
	if p.history != 0 || p.lookValid || p.updates != 0 {
		t.Error("reset left residual state")
	}
	if !p.Predict(pc) {
		t.Error("reset should restore the weakly-taken base table")
	}
}

func TestGeometricHistories(t *testing.T) {
	for _, tc := range []struct{ n, min, max int }{
		{1, 4, 4}, {2, 1, 64}, {6, 4, 64}, {8, 1, 8}, {15, 1, 64}, {5, 60, 64},
	} {
		hs := geometricHistories(tc.n, tc.min, tc.max)
		if len(hs) != tc.n {
			t.Fatalf("n=%d min=%d max=%d: got %d lengths", tc.n, tc.min, tc.max, len(hs))
		}
		if hs[0] < tc.min || hs[len(hs)-1] > tc.max {
			t.Errorf("n=%d min=%d max=%d: series %v escapes range", tc.n, tc.min, tc.max, hs)
		}
		for i := 1; i < len(hs); i++ {
			if hs[i] <= hs[i-1] {
				t.Errorf("n=%d min=%d max=%d: series %v not strictly increasing", tc.n, tc.min, tc.max, hs)
			}
		}
	}
}

// Property: counters saturate — after >=4 consistent updates the prediction
// matches the bias for any PC. This holds for the untagged predictors; TAGE
// is excluded because a cold tagged entry whose stored tag happens to equal
// the computed tag can legitimately override the base table.
func TestSaturationProperty(t *testing.T) {
	f := func(pcRaw uint32, taken bool, useGshare bool) bool {
		var p Predictor
		var err error
		if useGshare {
			p, err = NewGshare(10, 0) // no history: pure per-PC counters
		} else {
			p, err = NewBimodal(10)
		}
		if err != nil {
			return false
		}
		pc := uint64(pcRaw)
		for i := 0; i < 4; i++ {
			p.Update(pc, taken)
		}
		return p.Predict(pc) == taken
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
