package contest

import (
	"reflect"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/workload"
)

// TestContestProgress: both schedulers report the same progress, the
// leader's retirements, from their loops: at most 256 calls, never
// decreasing, the last (n, n). Attaching it moves no result bit.
func TestContestProgress(t *testing.T) {
	const n = 20_000
	tr := workload.MustGenerate("twolf", n)
	cfgs := []config.CoreConfig{config.MustPaletteCore("twolf"), config.MustPaletteCore("vpr")}
	plain, err := Run(cfgs, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var calls [2][][2]int64
	for i, single := range []bool{false, true} {
		var sys *System
		opts := Options{SingleStep: single, Progress: func(done, total int64) {
			if lead := sys.Core(sys.Leader()).Retired(); done != lead {
				t.Errorf("reported %d retired, the leader has %d", done, lead)
			}
			calls[i] = append(calls[i], [2]int64{done, total})
		}}
		sys, err = NewSystem(cfgs, tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, plain) {
			t.Errorf("single-step %v: progress moved the result", single)
		}
		c := calls[i]
		if len(c) == 0 || len(c) > 256 || c[len(c)-1] != [2]int64{n, n} {
			t.Fatalf("single-step %v: %d progress calls ending %v, want 1 to 256 ending at (%d, %d)", single, len(c), c[max(0, len(c)-1):], n, n)
		}
		for j := 1; j < len(c); j++ {
			if c[j][0] < c[j-1][0] {
				t.Fatalf("single-step %v: progress decreased: %v then %v", single, c[j-1], c[j])
			}
		}
	}
	if !reflect.DeepEqual(calls[0], calls[1]) {
		t.Errorf("schedulers report different progress:\nevent-driven %v\nsingle-step  %v", calls[0], calls[1])
	}
}
