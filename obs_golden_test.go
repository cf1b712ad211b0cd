package archcontest

// Golden-equivalence tests for the observability layer: a run with a
// recorder attached must produce the bit-identical Result of the same run
// with no recorder — the recorder reads, never steers. The grids mirror
// golden_test.go (5 benches × 8 cores stand-alone, the goldenContests legs
// × 4 benches contested), so every engine behaviour the golden suite
// covers — high latency, both exception-handler styles, saturation,
// store-queue backpressure, 3- and 4-way result buses — is also exercised
// with recording on.

import (
	"reflect"
	"testing"

	"archcontest/internal/obs"
)

func TestRecorderDetachedEquivalenceSingleCore(t *testing.T) {
	benches := []string{"gcc", "mcf", "bzip", "crafty", "twolf"}
	cores := []string{"bzip", "crafty", "gap", "gcc", "gzip", "mcf", "twolf", "vpr"}
	for _, b := range benches {
		tr := MustGenerateTrace(b, goldenInsts)
		for _, cn := range cores {
			cfg := MustPaletteCore(cn)
			bare, err := Run(cfg, tr, RunOptions{LogRegions: true})
			if err != nil {
				t.Fatalf("%s on %s: %v", b, cn, err)
			}
			rec := obs.NewRecorder(obs.Options{})
			recorded, err := Run(cfg, tr, RunOptions{LogRegions: true, Checker: rec.CoreChecker(0)})
			if err != nil {
				t.Fatalf("%s on %s (recorded): %v", b, cn, err)
			}
			if !reflect.DeepEqual(bare, recorded) {
				t.Errorf("%s on %s: recorder changed the result\nbare:     %+v\nrecorded: %+v", b, cn, bare, recorded)
			}
			rec.FinishRun(recorded)
			if len(rec.Events()) == 0 {
				t.Errorf("%s on %s: recorder attached but captured nothing", b, cn)
			}
		}
	}
}

func TestRecorderDetachedEquivalenceContested(t *testing.T) {
	for _, g := range goldenContests {
		cfgs := g.configs()
		for _, b := range goldenContestBenches {
			tr := MustGenerateTrace(b, goldenInsts)
			bareOpts := g.opts
			bareOpts.RegionSize = 20
			bare, err := ContestRun(cfgs, tr, bareOpts)
			if err != nil {
				t.Fatalf("%s: %v", g.name(b), err)
			}
			rec := obs.NewRecorder(obs.Options{})
			recOpts := g.opts
			recOpts.RegionSize = 20
			recOpts.Observer = rec
			recorded, err := ContestRun(cfgs, tr, recOpts)
			if err != nil {
				t.Fatalf("%s (recorded): %v", g.name(b), err)
			}
			if !reflect.DeepEqual(bare, recorded) {
				t.Errorf("%s: recorder changed the result\nbare:     %+v\nrecorded: %+v", g.name(b), bare, recorded)
			}
			rec.FinishContest(recorded)
			if rec.LeadChanges() != recorded.LeadChanges {
				t.Errorf("%s: recorder saw %d lead changes, contest reports %d",
					g.name(b), rec.LeadChanges(), recorded.LeadChanges)
			}
		}
	}
}
