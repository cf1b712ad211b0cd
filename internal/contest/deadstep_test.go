package contest

import (
	"reflect"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/pipeline"
	"archcontest/internal/workload"
)

// deadStepCounter is an Observer that counts, per core, the contest steps
// that make no progress: cycles the event-driven scheduler stepped although
// the shared skip rule could have jumped them. blocked counts the dead
// steps whose retirement the exception rendezvous or the store queue
// refused, and refused every step so refused, dead or not. Such a core
// reports no skip bound, so it steps every cycle until it is let through.
type deadStepCounter struct{ steps, dead, blocked, refused []int64 }

func (o *deadStepCounter) Attach(sys *System) {
	n := sys.NumCores()
	o.steps, o.dead = make([]int64, n), make([]int64, n)
	o.blocked, o.refused = make([]int64, n), make([]int64, n)
}
func (o *deadStepCounter) CoreChecker(int) pipeline.Checker { return nil }
func (o *deadStepCounter) AfterStep(sys *System, core int) {
	o.steps[core]++
	c := sys.Core(core)
	refused := c.Inspect().ExtStalled()
	if refused {
		o.refused[core]++
	}
	if !c.Progressed() {
		o.dead[core]++
		if refused {
			o.blocked[core]++
		}
	}
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// TestContestDeadSteps fences the event-driven scheduler: at most 5% of the
// engine contests' steps may be dead, while every core's cycle count stays
// that of the single-step reference. It logs each core's dead steps split
// into those blocked on the store queue or the exception rendezvous and the
// rest, for the engine contests and one golden exception configuration,
// whose cores wait at every rendezvous and so are not fenced. The counts
// are deterministic: a second run repeats them exactly.
func TestContestDeadSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-instruction contests")
	}
	for _, tc := range []struct {
		name   string
		bench  string
		cores  []string
		opts   Options
		fenced bool
	}{
		{"twolf on twolf+vpr", "twolf", []string{"twolf", "vpr"}, Options{}, true},
		{"mcf on mcf+gcc", "mcf", []string{"mcf", "gcc"}, Options{}, true},
		{"gcc on gcc+mcf+bzip+crafty", "gcc", []string{"gcc", "mcf", "bzip", "crafty"}, Options{}, true},
		{"twolf on twolf+vpr, an exception every 512", "twolf", []string{"twolf", "vpr"}, Options{ExceptionEvery: 512}, false},
	} {
		tr := workload.MustGenerate(tc.bench, 100_000)
		cfgs := make([]config.CoreConfig, len(tc.cores))
		for i, name := range tc.cores {
			cfgs[i] = config.MustPaletteCore(name)
		}
		var cnt, again deadStepCounter
		opts := tc.opts
		opts.Observer = &cnt
		fast, err := Run(cfgs, tr, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opts.Observer = &again
		if _, err := Run(cfgs, tr, opts); err != nil {
			t.Fatalf("%s (again): %v", tc.name, err)
		}
		if !reflect.DeepEqual(cnt, again) {
			t.Errorf("%s: step counts differ between two runs: %+v, then %+v", tc.name, cnt, again)
		}
		opts.Observer, opts.SingleStep = nil, true
		ref, err := Run(cfgs, tr, opts)
		if err != nil {
			t.Fatalf("%s (single-step): %v", tc.name, err)
		}
		for i := range ref.PerCore {
			if got, want := fast.PerCore[i].Cycles, ref.PerCore[i].Cycles; got != want {
				t.Errorf("%s: core %d ran %d cycles, single-step %d", tc.name, i, got, want)
			}
		}
		for i := range tc.cores {
			if cnt.blocked[i] > cnt.dead[i] || cnt.blocked[i] > cnt.refused[i] {
				t.Errorf("%s: core %d has %d blocked of %d dead steps (%d refused)",
					tc.name, i, cnt.blocked[i], cnt.dead[i], cnt.refused[i])
			}
			t.Logf("%s: core %d (%s): %d steps, %d dead blocked, %d other dead, %d refused",
				tc.name, i, tc.cores[i], cnt.steps[i], cnt.blocked[i], cnt.dead[i]-cnt.blocked[i], cnt.refused[i])
		}
		steps, dead, blocked := sum(cnt.steps), sum(cnt.dead), sum(cnt.blocked)
		share := float64(dead) / float64(steps)
		t.Logf("%s: %d steps, %d dead (%.1f%%), %d of them blocked (%.1f%%)",
			tc.name, steps, dead, 100*share, blocked, 100*float64(blocked)/float64(steps))
		if tc.fenced && share > 0.05 {
			t.Errorf("%s: %.1f%% of %d contest steps made no progress, above 5%%", tc.name, 100*share, steps)
		}
	}
}
