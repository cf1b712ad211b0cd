package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"archcontest/internal/resultcache"
)

// TestSingleflightDedup is the regression test for the duplicate-work race:
// concurrent callers asking for the same artifact used to each simulate it,
// because the old Lab released its mutex between the cache check and the
// store. With the keyed singleflight, eight concurrent Runs callers must
// execute exactly one simulation per palette core.
func TestSingleflightDedup(t *testing.T) {
	l := NewLab(Config{N: 12_000})
	const callers = 8
	var wg sync.WaitGroup
	results := make([][]string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rs, err := l.Runs(context.Background(), "gcc")
			if err != nil {
				t.Error(err)
				return
			}
			for _, r := range rs {
				results[g] = append(results[g], fmt.Sprintf("%s@%d", r.Core, r.Time))
			}
		}(g)
	}
	wg.Wait()
	st := l.CampaignStats()
	if want := int64(len(l.Cores())); st.Simulations != want {
		t.Errorf("%d concurrent callers executed %d simulations, want %d", callers, st.Simulations, want)
	}
	if st.TraceGens != 1 {
		t.Errorf("trace generated %d times", st.TraceGens)
	}
	for g := 1; g < callers; g++ {
		if !reflect.DeepEqual(results[0], results[g]) {
			t.Fatalf("caller %d saw different results", g)
		}
	}
}

// Concurrent BestPair/Study/Matrix callers share the same leaf runs.
func TestSingleflightAcrossArtifacts(t *testing.T) {
	l := NewLab(Config{N: 12_000, CandidatePairs: 2})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.BestPair(context.Background(), "twolf"); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Study(context.Background(), "twolf"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := l.CampaignStats()
	if want := int64(len(l.Cores())); st.Simulations != want {
		t.Errorf("executed %d simulations, want %d (one per core)", st.Simulations, want)
	}
}

// parallel must return the lowest-indexed error no matter which worker hits
// an error first.
func TestParallelFirstErrorDeterministic(t *testing.T) {
	l := NewLab(Config{N: 1000, Parallelism: 8})
	for trial := 0; trial < 20; trial++ {
		err := l.parallel(context.Background(), 64, func(i int) error {
			if i >= 17 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 17 failed" {
			t.Fatalf("trial %d: got %v, want item 17's error", trial, err)
		}
	}
}

// parallel must run at most Parallelism items at once (and, transitively,
// the Lab's leaf executor bounds concurrent simulations the same way).
func TestParallelBoundsWorkers(t *testing.T) {
	const bound = 3
	l := NewLab(Config{N: 1000, Parallelism: bound})
	var cur, peak atomic.Int64
	err := l.parallel(context.Background(), 50, func(i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for spin := 0; spin < 10000; spin++ {
			_ = spin
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Errorf("observed %d concurrent items, bound is %d", p, bound)
	}
}

func TestParallelRetriesAfterError(t *testing.T) {
	l := NewLab(Config{N: 12_000})
	fail := true
	// A failed artifact must not be memoized: the next call retries.
	_, err := l.flight.do(context.Background(), "probe", func() (any, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return "ok", nil
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	fail = false
	v, err := l.flight.do(context.Background(), "probe", func() (any, error) { return "ok", nil })
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry failed: %v %v", v, err)
	}
}

// TestWarmCacheGolden locks the acceptance criterion that a warm-cache
// campaign is bit-identical to a cold one and to an uncached one: matrix,
// studies, and best pairs all deep-equal across the three labs, and the
// warm lab executes zero simulations.
func TestWarmCacheGolden(t *testing.T) {
	dir := t.TempDir()
	mkLab := func(withCache bool) *Lab {
		cfg := Config{N: 12_000, CandidatePairs: 2}
		if withCache {
			c, err := resultcache.Open(dir, resultcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cache = c
		}
		return NewLab(cfg)
	}
	type artifacts struct {
		ipt      [][]float64
		runs     any
		bestPair any
	}
	collect := func(l *Lab) artifacts {
		m, err := l.Matrix(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rs, err := l.Runs(context.Background(), "twolf")
		if err != nil {
			t.Fatal(err)
		}
		bp, err := l.BestPair(context.Background(), "twolf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Study(context.Background(), "twolf"); err != nil {
			t.Fatal(err)
		}
		return artifacts{ipt: m.IPT, runs: rs, bestPair: bp}
	}

	cold := mkLab(true)
	a := collect(cold)
	if st := cold.CampaignStats(); st.Simulations == 0 || st.CacheHits != 0 {
		t.Fatalf("cold lab stats implausible: %+v", st)
	}

	warm := mkLab(true)
	b := collect(warm)
	if st := warm.CampaignStats(); st.Simulations != 0 || st.Contests != 0 {
		t.Fatalf("warm lab re-simulated: %+v", st)
	}

	plain := mkLab(false)
	c := collect(plain)

	if !reflect.DeepEqual(a.ipt, b.ipt) || !reflect.DeepEqual(a.ipt, c.ipt) {
		t.Error("matrix differs across cold/warm/uncached labs")
	}
	if !reflect.DeepEqual(a.runs, b.runs) || !reflect.DeepEqual(a.runs, c.runs) {
		t.Error("single-core runs differ across cold/warm/uncached labs")
	}
	if !reflect.DeepEqual(a.bestPair, b.bestPair) || !reflect.DeepEqual(a.bestPair, c.bestPair) {
		t.Error("best pair differs across cold/warm/uncached labs")
	}
}

// A negative Parallelism (a CLI flag such as -par -1) means NumCPU, as zero
// does, instead of a negative semaphore capacity.
func TestNegativeParallelismMeansNumCPU(t *testing.T) {
	l := NewLab(Config{N: 2_000, Parallelism: -1})
	if got := l.cfg.Parallelism; got != runtime.NumCPU() {
		t.Errorf("Parallelism -1 became %d, want NumCPU (%d)", got, runtime.NumCPU())
	}
	m, err := l.Matrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Campaign results must not depend on the parallelism level.
func TestParallelismIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("two matrix campaigns in short mode")
	}
	seq := NewLab(Config{N: 12_000, Parallelism: 1})
	par := NewLab(Config{N: 12_000, Parallelism: 8})
	ms, err := seq.Matrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mp, err := par.Matrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms.IPT, mp.IPT) {
		t.Error("matrix depends on parallelism level")
	}
}
