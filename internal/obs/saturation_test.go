package obs

import (
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/contest"
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
	"archcontest/internal/workload"
)

// overflowProbe derives, independently of the recorder, when each
// saturated lagger's result FIFO overflowed: a FIFO overflows on a
// broadcast, so during the step of the sender whose step saturated it, at
// that step's retirement time (a cycle's retirements share one time).
type overflowProbe struct {
	stepRetires []ticks.Time // retirement times of the current step
	gone        []bool
	want        map[int]ticks.Time // saturated core → overflowing retirement
	mixed       bool               // one step retired at two different times
}

func (p *overflowProbe) Attach(sys *contest.System) {
	p.gone = make([]bool, sys.NumCores())
	p.want = map[int]ticks.Time{}
}

func (p *overflowProbe) CoreChecker(int) pipeline.Checker { return (*retireLog)(p) }

func (p *overflowProbe) AfterStep(sys *contest.System, core int) {
	for i := range p.gone {
		if !p.gone[i] && sys.IsSaturated(i) {
			p.gone[i] = true
			p.want[i] = -1 // no retirement in the step: no broadcast to blame
			if len(p.stepRetires) > 0 {
				p.want[i] = p.stepRetires[0]
			}
		}
	}
	for _, at := range p.stepRetires {
		p.mixed = p.mixed || at != p.stepRetires[0]
	}
	p.stepRetires = p.stepRetires[:0]
}

// retireLog is the probe's per-core checker: it collects the current
// step's retirement times.
type retireLog overflowProbe

func (l *retireLog) AfterCycle(*pipeline.Core) {}
func (l *retireLog) OnRetire(_ *pipeline.Core, _ int64, at ticks.Time) {
	l.stepRetires = append(l.stepRetires, at)
}
func (l *retireLog) OnInject(*pipeline.Core, int64, ticks.Time) {}

// TestRecorderSaturationEvents: a saturation event is stamped with the
// sender retirement that overflowed the lagger's FIFO, not with the
// sender's next clock edge.
func TestRecorderSaturationEvents(t *testing.T) {
	for _, tc := range []struct {
		bench  string
		cores  []string
		maxLag int
	}{
		{"gzip", []string{"gzip", "perl"}, 64},
		{"gcc", []string{"gcc", "mcf", "bzip", "crafty"}, 256},
	} {
		tr := workload.MustGenerate(tc.bench, 100_000)
		cfgs := make([]config.CoreConfig, len(tc.cores))
		for i, name := range tc.cores {
			cfgs[i] = config.MustPaletteCore(name)
		}
		rec := NewRecorder(Options{Capacity: 1 << 16})
		probe := &overflowProbe{}
		res, err := contest.Run(cfgs, tr, contest.Options{MaxLag: tc.maxLag, Observer: MultiObserver(rec, probe)})
		if err != nil {
			t.Fatal(err)
		}
		rec.FinishContest(res)
		seen := map[int]bool{}
		for _, e := range rec.Events() {
			if e.Kind != KindSaturated {
				continue
			}
			core := int(e.Core)
			seen[core] = true
			want, ok := probe.want[core]
			if !ok {
				t.Errorf("%s on %v: saturation event for core %d, which never saturated", tc.bench, tc.cores, core)
			} else if e.Time != want {
				t.Errorf("%s on %v: core %d saturation stamped %d, FIFO overflowed at %d", tc.bench, tc.cores, core, e.Time, want)
			}
		}
		if probe.mixed {
			t.Fatalf("%s on %v: a step retired at two different times", tc.bench, tc.cores)
		}
		if len(seen) == 0 {
			t.Errorf("%s on %v, MaxLag %d: no saturation event", tc.bench, tc.cores, tc.maxLag)
		}
		for i, sat := range res.Saturated {
			if sat != seen[i] {
				t.Errorf("%s on %v: core %d saturated %v, event recorded %v", tc.bench, tc.cores, i, sat, seen[i])
			}
		}
	}
}
