package sim

import (
	"reflect"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/workload"
)

// TestMeter: fed every count from 0 to total, a meter reports each count
// that is the first of a later 1/256 of the trace, so min(total, 256)
// times, ending at (total, total). Fed counts that jump by up to a core's
// width, it reports at most once per 1/256 and still ends there.
func TestMeter(t *testing.T) {
	for _, total := range []int64{1, 2, 100, 255, 256, 257, 1000, 65_537, 100_000} {
		for _, jump := range []int64{1, 3, 8} {
			var calls [][2]int64
			m := NewMeter(func(done, total int64) { calls = append(calls, [2]int64{done, total}) }, total)
			for done := int64(0); ; done = min(done+jump, total) {
				m.Observe(done)
				if done == total {
					break
				}
			}
			if len(calls) == 0 || calls[len(calls)-1] != [2]int64{total, total} {
				t.Fatalf("total %d, jump %d: last call of %v, want (%d, %d)", total, jump, calls[max(0, len(calls)-1):], total, total)
			}
			if jump == 1 && int64(len(calls)) != min(total, 256) {
				t.Errorf("total %d: %d calls, want %d", total, len(calls), min(total, 256))
			}
			band := int64(0)
			for _, c := range calls {
				b := c[0] * 256 / total
				if b <= band || c[1] != total {
					t.Fatalf("total %d, jump %d: call %v in 1/256 number %d after number %d", total, jump, c, b, band)
				}
				if first := (c[0] - 1) * 256 / total; jump == 1 && first == b {
					t.Fatalf("total %d: call %v is not the first count of its 1/256", total, c)
				}
				band = b
			}
		}
	}
	silent := func(done, total int64) { t.Errorf("reported (%d, %d)", done, total) }
	empty := NewMeter(silent, 0)
	empty.Observe(0)
	empty.Observe(5)
	none := NewMeter(nil, 10)
	none.Observe(10)
}

// checkProgress checks a run's progress calls: at most 256, done never
// decreasing, the last (n, n).
func checkProgress(t *testing.T, calls [][2]int64, n int64) {
	t.Helper()
	if len(calls) == 0 || len(calls) > 256 || calls[len(calls)-1] != [2]int64{n, n} {
		t.Fatalf("%d progress calls ending %v, want 1 to 256 ending at (%d, %d)", len(calls), calls[max(0, len(calls)-1):], n, n)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i][0] < calls[i-1][0] {
			t.Fatalf("progress decreased: %v then %v", calls[i-1], calls[i])
		}
	}
}

// TestRunProgress: both schedulers report the same progress from the run
// loop, and attaching it moves no result bit.
func TestRunProgress(t *testing.T) {
	const n = 20_000
	tr := workload.MustGenerate("gcc", n)
	cfg := config.MustPaletteCore("gcc")
	plain := MustRun(cfg, tr, RunOptions{})
	var calls [2][][2]int64
	for i, single := range []bool{false, true} {
		r := MustRun(cfg, tr, RunOptions{SingleStep: single, Progress: func(done, total int64) {
			calls[i] = append(calls[i], [2]int64{done, total})
		}})
		if !reflect.DeepEqual(r, plain) {
			t.Errorf("single-step %v: progress moved the result", single)
		}
		checkProgress(t, calls[i], n)
	}
	if !reflect.DeepEqual(calls[0], calls[1]) {
		t.Errorf("schedulers report different progress:\nevent-driven %v\nsingle-step  %v", calls[0], calls[1])
	}
}
