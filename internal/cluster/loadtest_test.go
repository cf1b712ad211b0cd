package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestClusterLoad drives a 3-node fleet through the facade with 64
// concurrent submit-and-watch streams (16 under -short) over 24 scenario
// shapes (12), twice: a cold pass that fills the nodes' result caches and
// a warm pass that repeats the same jobs. Both passes must complete
// losslessly with plausible submit-to-terminal latency percentiles, and
// cache-aware routing must turn the warm pass into result-cache hits:
// every shape was cached on its affinity node during the cold pass, and
// routing sends the repeat back there.
func TestClusterLoad(t *testing.T) {
	streams, njobs, shapes := 64, 128, 24
	if testing.Short() {
		streams, njobs, shapes = 16, 32, 12
	}
	// A queue bound above the whole pass keeps the run measuring latency,
	// not shed-and-retry behaviour.
	f := startTestFleet(t, 3, FleetOptions{Workers: 2, MaxQueue: 4 * streams})
	specs := loadSpecs(shapes)

	for _, pass := range []string{"cold", "warm"} {
		hits0, gets0 := fleetCacheCounts(f)
		lats := make([]time.Duration, njobs)
		errs := make([]error, njobs)
		next := make(chan int)
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					lats[i], errs[i] = submitAndWatch(f.CoordURL, specs[i%len(specs)])
				}
			}()
		}
		for i := 0; i < njobs; i++ {
			next <- i
		}
		close(next)
		wg.Wait()

		for i, err := range errs {
			if err != nil {
				t.Errorf("%s pass: job %d failed: %v", pass, i, err)
			}
		}
		p50, p99 := percentile(lats, 0.50), percentile(lats, 0.99)
		if p50 <= 0 || p99 < p50 {
			t.Errorf("%s pass: implausible latency percentiles p50=%v p99=%v", pass, p50, p99)
		}
		hits1, gets1 := fleetCacheCounts(f)
		hitRate := 0.0
		if gets1 > gets0 {
			hitRate = float64(hits1-hits0) / float64(gets1-gets0)
		}
		if pass == "warm" && hitRate < 0.9 {
			t.Errorf("warm hit rate %.3f, want >=0.9", hitRate)
		}
		t.Logf("%s: p50=%v p99=%v hit=%.3f", pass, p50, p99, hitRate)
	}
	if st := f.Coord.Stats(); st.Lost != 0 {
		t.Errorf("coordinator lost %d jobs (stats %+v)", st.Lost, st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// loadSpecs builds n distinct scenario shapes. They differ in benchmark
// and instruction count, so every shape has its own route key and its own
// result-cache entries. 60k instructions dominate the HTTP overhead and
// still finish a pass quickly.
func loadSpecs(n int) []string {
	benches := []string{"gcc", "mcf", "twolf", "vpr", "bzip", "crafty", "gap", "gzip", "parser", "perl", "vortex"}
	specs := make([]string, n)
	for i := range specs {
		b := benches[i%len(benches)]
		specs[i] = fmt.Sprintf(`{"kind":"run","bench":%q,"cores":[%q],"n":%d}`, b, b, 60_000+i/len(benches))
	}
	return specs
}

// submitAndWatch submits one spec through the facade and watches it to
// its terminal line, returning the submit-to-terminal latency. 429/503
// sheds are retried after a short pause, a bounded number of times, so a
// wedged fleet fails rather than hangs.
func submitAndWatch(coordURL, specJSON string) (time.Duration, error) {
	start := time.Now()
	var id string
	for retry := 0; id == ""; retry++ {
		resp, err := http.Post(coordURL+"/v1/jobs", "application/json", strings.NewReader(specJSON))
		if err != nil {
			return 0, err
		}
		var v map[string]any
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			if id, _ = v["id"].(string); id == "" {
				return 0, fmt.Errorf("submit: 202 without a job id: %v", v)
			}
		case resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable:
			return 0, fmt.Errorf("submit: status %d: %v", resp.StatusCode, v)
		case retry == 200:
			return 0, fmt.Errorf("fleet shed the job %d times", retry+1)
		default:
			time.Sleep(25 * time.Millisecond)
		}
	}

	resp, err := http.Get(coordURL + "/v1/jobs/" + id + "?watch=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var snap map[string]any
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			return 0, fmt.Errorf("watch %s: bad line %q: %v", id, sc.Text(), err)
		}
		switch snap["state"] {
		case "done":
			return time.Since(start), nil
		case "failed", "cancelled":
			return 0, fmt.Errorf("job %s ended %v: %v", id, snap["state"], snap["error"])
		}
	}
	return 0, fmt.Errorf("watch of %s ended without a terminal line", id)
}

// fleetCacheCounts sums the nodes' result-cache hits and lookups.
func fleetCacheCounts(f *Fleet) (hits, gets int64) {
	for _, n := range f.Nodes {
		st := n.Cache.Stats()
		hits += st.Hits
		gets += st.Hits + st.Misses
	}
	return hits, gets
}

// percentile returns the q-quantile of lats by the nearest lower rank.
func percentile(lats []time.Duration, q float64) time.Duration {
	sorted := slices.Clone(lats)
	slices.Sort(sorted)
	return sorted[int(q*float64(len(sorted)-1))]
}
