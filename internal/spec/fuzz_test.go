package spec

import (
	"testing"

	"archcontest/internal/cache"
	"archcontest/internal/contest"
)

// FuzzSpec: Parse then Validate never panics, whatever the bytes, and every
// spec Validate accepts stays inside the admission bounds: a trace of at
// most maxN instructions, cache levels of at most cache.MaxLines lines, an
// explore window and step count within their limits, the core count its
// kind allows (2..8 for a contest), and contest options with no negative
// duration and a MaxLag of at most contest.MaxLagLimit. The target never
// executes a spec.
//
//	go test -fuzz=FuzzSpec -fuzztime=30s -run '^$' ./internal/spec/
func FuzzSpec(f *testing.F) {
	for _, s := range []string{
		`{"kind":"run","bench":"gcc"}`,
		`{"kind":"contest","bench":"gcc","cores":["gcc","mcf"]}`,
		`{"kind":"experiment","experiment":"fig6"}`,
		`{"kind":"matrix"}`,
		`{"kind":"explore","bench":"gcc"}`,
		`{"kind":"run","bench":"gcc","n":10000000000}`,
	} {
		f.Add([]byte(s))
	}
	for _, s := range hostileSpecs() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil || sp.Validate() != nil {
			return
		}
		if sp.N < 1 || sp.N > maxN {
			t.Errorf("accepted n = %d", sp.N)
		}
		for i, c := range sp.Custom {
			for _, l := range []cache.Config{c.L1D, c.L2D} {
				if l.Sets < 1 || l.Assoc < 1 || l.Assoc > cache.MaxLines/l.Sets {
					t.Errorf("accepted custom core %d with %d sets x %d ways", i, l.Sets, l.Assoc)
				}
			}
		}
		if e := sp.Explore; e != nil {
			if sp.Kind != KindExplore {
				t.Errorf("accepted explore options on kind %q", sp.Kind)
			}
			if e.Steps < 0 || e.Steps > maxExploreSteps || e.Lookahead < 0 || e.Lookahead > maxLookahead {
				t.Errorf("accepted explore steps %d, lookahead %d", e.Steps, e.Lookahead)
			}
		}
		if o := sp.Contest; o != nil {
			if o.MaxLag < 0 || o.MaxLag > contest.MaxLagLimit {
				t.Errorf("accepted contest MaxLag %d", o.MaxLag)
			}
			for _, ns := range []float64{o.LatencyNs, o.ExceptionHandlerNs, o.ExceptionReforkNs,
				o.ReforkWarmupNs, o.LeadChangeWarmupNs, o.MaxTimeNs} {
				if ns < 0 {
					t.Errorf("accepted contest options with a negative duration: %+v", *o)
				}
			}
		}
		cores := len(sp.Cores) + len(sp.Custom)
		switch sp.Kind {
		case KindRun:
			if cores != 1 {
				t.Errorf("accepted a run on %d cores", cores)
			}
		case KindContest:
			if cores < 2 || cores > 8 {
				t.Errorf("accepted a contest on %d cores", cores)
			}
		default:
			if cores != 0 {
				t.Errorf("accepted kind %q with %d cores", sp.Kind, cores)
			}
		}
	})
}
