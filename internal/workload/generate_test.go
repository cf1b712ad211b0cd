package workload

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"archcontest/internal/isa"
	"archcontest/internal/trace"
)

// sameInsts reports the first instruction at which a and b differ over the
// first n of each, or -1.
func sameInsts(a, b *trace.Trace, n int) int {
	ra, rb := a.Reader(0), b.Reader(0)
	var x, y isa.Inst
	for i := 0; i < n; i++ {
		if !ra.Next(&x) || !rb.Next(&y) || x != y {
			return i
		}
	}
	return -1
}

// TestGenerateBatchBoundaries: at every length around the batch size,
// Generate returns exactly n instructions, and they are the first n of a
// longer trace of the same profile. The generator is prefix-stable, so the
// longer trace is a reference that shares no batch boundary with the
// shorter ones.
func TestGenerateBatchBoundaries(t *testing.T) {
	for _, name := range []string{"gcc", "mcf"} {
		long := MustGenerate(name, 3*batchLen+batchLen/2+3)
		for _, n := range []int{1, 2, batchLen - 1, batchLen, batchLen + 1, 3*batchLen + 17} {
			tr := MustGenerate(name, n)
			if tr.Len() != n {
				t.Fatalf("%s at n = %d: %d instructions", name, n, tr.Len())
			}
			if i := sameInsts(tr, long, n); i >= 0 {
				t.Errorf("%s at n = %d: instruction %d differs from the longer trace's", name, n, i)
			}
		}
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall to
// want: a goroutine that has closed its last channel may not have exited
// yet when its receiver returns.
func waitGoroutines(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %s, want %d", runtime.NumGoroutine(), after, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGenerateLeavesNoGoroutine: the generating goroutine ends before
// Generate returns, after a trace, after an error, and when the consumer
// panics part-way through.
func TestGenerateLeavesNoGoroutine(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, n := range []int{1, batchLen, 5*batchLen + 1} {
		MustGenerate("twolf", n)
		waitGoroutines(t, start, "a trace")
	}
	p, _ := ProfileFor("gcc")
	if _, err := Generate(p, 0); err == nil {
		t.Error("zero length accepted")
	}
	bad := p
	bad.Weights = [NumArchetypes]float64{}
	if _, err := Generate(bad, 100); err == nil {
		t.Error("invalid profile accepted")
	}
	waitGoroutines(t, start, "failed calls")

	batches := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the consumer's panic did not reach the caller")
			}
		}()
		newGenerator(p).run(20*batchLen, func([]isa.Inst) {
			if batches++; batches == 2 {
				panic("consumer gives up")
			}
		})
	}()
	if batches != 2 {
		t.Errorf("consumer saw %d batches, want 2", batches)
	}
	waitGoroutines(t, start, "a consumer panic")
}

// TestGenerateConcurrent: traces generated at once on several goroutines,
// as a Lab's workers generate them, equal the traces generated one by one.
// It runs in -short mode, so the race detector sees it in CI.
func TestGenerateConcurrent(t *testing.T) {
	names := []string{"gcc", "mcf", "crafty", "twolf"}
	const n = 2*batchLen + 77
	want := make(map[string]uint64)
	for _, name := range names {
		want[name] = MustGenerate(name, n).Fingerprint()
	}
	var wg sync.WaitGroup
	got := make([]uint64, 2*len(names))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = MustGenerate(names[i%len(names)], n).Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if name := names[i%len(names)]; fp != want[name] {
			t.Errorf("%s generated concurrently: fingerprint %#x, want %#x", name, fp, want[name])
		}
	}
}
