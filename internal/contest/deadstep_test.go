package contest

import (
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/pipeline"
	"archcontest/internal/workload"
)

// deadStepCounter is an Observer that counts the contest steps that make
// no progress: cycles the event-driven scheduler stepped although the
// shared skip rule could have jumped them.
type deadStepCounter struct{ steps, dead int64 }

func (o *deadStepCounter) Attach(*System)                   {}
func (o *deadStepCounter) CoreChecker(int) pipeline.Checker { return nil }
func (o *deadStepCounter) AfterStep(sys *System, core int) {
	o.steps++
	if !sys.Core(core).Progressed() {
		o.dead++
	}
}

// TestContestDeadSteps fences the event-driven scheduler: at most 5% of its
// steps may be dead, while every core's cycle count stays that of the
// single-step reference.
func TestContestDeadSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-instruction contests")
	}
	for _, tc := range []struct {
		bench string
		cores []string
	}{
		{"twolf", []string{"twolf", "vpr"}},
		{"mcf", []string{"mcf", "gcc"}},
		{"gcc", []string{"gcc", "mcf", "bzip", "crafty"}},
	} {
		tr := workload.MustGenerate(tc.bench, 100_000)
		cfgs := make([]config.CoreConfig, len(tc.cores))
		for i, name := range tc.cores {
			cfgs[i] = config.MustPaletteCore(name)
		}
		var cnt deadStepCounter
		fast, err := Run(cfgs, tr, Options{Observer: &cnt})
		if err != nil {
			t.Fatalf("%s on %v: %v", tc.bench, tc.cores, err)
		}
		ref, err := Run(cfgs, tr, Options{SingleStep: true})
		if err != nil {
			t.Fatalf("%s on %v (single-step): %v", tc.bench, tc.cores, err)
		}
		for i := range ref.PerCore {
			if got, want := fast.PerCore[i].Cycles, ref.PerCore[i].Cycles; got != want {
				t.Errorf("%s on %v: core %d ran %d cycles, single-step %d", tc.bench, tc.cores, i, got, want)
			}
		}
		share := float64(cnt.dead) / float64(cnt.steps)
		t.Logf("%s on %v: %d steps, %d dead (%.1f%%)", tc.bench, tc.cores, cnt.steps, cnt.dead, 100*share)
		if share > 0.05 {
			t.Errorf("%s on %v: %.1f%% of %d contest steps made no progress, above 5%%", tc.bench, tc.cores, 100*share, cnt.steps)
		}
	}
}
