package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"archcontest/internal/obs"
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

// Campaign results must not depend on the parallelism level: every
// experiment renders the same table, and the matrix holds the same IPTs, on
// a sequential Lab and a four-worker one.
func TestParallelismIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns in short mode")
	}
	ctx := context.Background()
	seq := NewLab(Config{N: 12_000, Parallelism: 1})
	par := NewLab(Config{N: 12_000, Parallelism: 4})
	for _, id := range RegistryOrder {
		ts, err := Registry[id](ctx, seq)
		if err != nil {
			t.Fatalf("%s at parallelism 1: %v", id, err)
		}
		tp, err := Registry[id](ctx, par)
		if err != nil {
			t.Fatalf("%s at parallelism 4: %v", id, err)
		}
		if ts.String() != tp.String() {
			t.Errorf("%s depends on parallelism level:\n%s\nvs\n%s", id, ts, tp)
		}
	}
	ms, err := seq.Matrix(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := par.Matrix(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms.IPT, mp.IPT) {
		t.Error("matrix depends on parallelism level")
	}
}

// Every experiment hands its whole leaf list to the pool: on a two-slot Lab,
// each experiment that executes two or more runs or contests has two of them
// in flight at once. A pairGate holds each leaf until a second one is in
// flight, so the check does not depend on the host running both pool
// workers within one leaf's few milliseconds.
func TestExperimentsFanOut(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("leaves cannot overlap on one CPU")
	}
	log := obs.NewArtifactLog()
	l := NewLab(Config{N: 12_000, CandidatePairs: 2, Parallelism: 2, Artifacts: log})
	gate := &pairGate{}
	l.leafBody = gate.hold
	for _, id := range RegistryOrder {
		gate.reset()
		before := len(log.Spans())
		if _, err := Registry[id](context.Background(), l); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var leaves []obs.Span
		for _, sp := range log.Spans()[before:] {
			if sp.Kind == "run" || sp.Kind == "contest" {
				leaves = append(leaves, sp)
			}
		}
		if len(leaves) >= 2 && !overlap(leaves) {
			t.Errorf("%s executed its %d leaves one at a time", id, len(leaves))
		}
	}
}

// pairWait bounds how long a pairGate holds a leaf that no second leaf
// joins, so an experiment that runs its leaves one at a time waits it out
// once and fails rather than hanging.
const pairWait = 5 * time.Second

// pairGate holds each run or contest until a second one is in flight at the
// same time. A held leaf has started its span, so the leaf that joins it
// starts its own span before the held one ends. Once two leaves have met,
// or one has waited out pairWait, it holds no more until reset.
type pairGate struct {
	mu       sync.Mutex
	inFlight int
	open     chan struct{} // closed when the gate stops holding
}

func (g *pairGate) reset() {
	g.mu.Lock()
	g.inFlight, g.open = 0, make(chan struct{})
	g.mu.Unlock()
}

// openLocked closes open once; g.mu must be held.
func (g *pairGate) openLocked() {
	select {
	case <-g.open:
	default:
		close(g.open)
	}
}

func (g *pairGate) hold(kind string, body func()) {
	if kind != "run" && kind != "contest" {
		body()
		return
	}
	g.mu.Lock()
	g.inFlight++
	if g.inFlight == 2 {
		g.openLocked()
	}
	open := g.open
	g.mu.Unlock()
	select {
	case <-open:
	case <-time.After(pairWait):
		g.mu.Lock()
		g.openLocked()
		g.mu.Unlock()
	}
	body()
	g.mu.Lock()
	g.inFlight--
	g.mu.Unlock()
}

// overlap reports whether any two spans are in flight at the same time.
func overlap(spans []obs.Span) bool {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	end := spans[0].End
	for _, sp := range spans[1:] {
		if sp.Start.Before(end) {
			return true
		}
		if sp.End.After(end) {
			end = sp.End
		}
	}
	return false
}

// Predictors' gshare legs are the matrix's own-core runs (region logging
// changes no statistic), so after Matrix it executes only its five TAGE runs
// and five contests.
func TestPredictorsReuseMatrixLeaves(t *testing.T) {
	ctx := context.Background()
	l := NewLab(Config{N: 12_000})
	if _, err := l.Matrix(ctx); err != nil {
		t.Fatal(err)
	}
	before := l.CampaignStats()
	if _, err := Predictors(ctx, l); err != nil {
		t.Fatal(err)
	}
	after := l.CampaignStats()
	if sims := after.Simulations - before.Simulations; sims != 5 {
		t.Errorf("Predictors executed %d simulations after Matrix, want 5 (the TAGE legs)", sims)
	}
	if contests := after.Contests - before.Contests; contests != 5 {
		t.Errorf("Predictors executed %d contests, want 5", contests)
	}
}
