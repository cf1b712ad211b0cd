package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"archcontest/internal/cluster"
	"archcontest/internal/resultcache"
	"archcontest/internal/spec"
	"archcontest/internal/workload"
)

// The serve workload drives an in-process fleet (cluster.StartFleet: a
// coordinator and two nodes of one worker each over one shared MemStore)
// with an open loop: Poisson arrivals at p.serveRate, sent on schedule
// whether or not earlier jobs have finished, so a stall shows as a growing
// backlog. One connection submits and another polls the outstanding jobs
// every 10 ms. The cluster, jobs, spec.Env and result-cache-hit paths do
// most of the work. A job's latency runs from its scheduled send time to
// the node's finished_at, so lateness of the generator counts against it.
//
// The schedule spans a quarter of the window (one block of the mix below)
// and is replayed in four passes, each on a fresh fleet over a fresh store,
// so every job is served four times from the same state; a job's latency
// is the median of its passes. The rate is a tenth of the fleet's capacity
// on the baseline host: latency spread three times as much as service
// time at a fifth of it, and at half the host's slow spells saturated the
// fleet and tripled the median latency.

const (
	servePasses  = 4
	serveSegment = 5
	serveNodes   = 2
	servePoll    = 10 * time.Millisecond
	serveDrain   = time.Minute // bounds the wait for a segment's last jobs
)

// serveBlock is the kind mix of every block of 20 consecutive jobs, in a
// seeded order: 11 single runs, 5 contests, 3 exact repeats of earlier jobs
// and 1 verified run. Each block's runs take every benchmark once on its
// own palette core and its contests are the five serveContests, each at a
// fixed length spread over [serveNMin, serveNMax]. The seed changes order,
// timing, repeats and the verified benchmark but not which machines run
// which traces: with random benchmarks, cores and lengths the simulation
// throughput moved by a quarter from seed to seed, and the median job
// changed identity.
var serveBlock = []string{
	"run", "run", "run", "run", "run", "run", "run", "run", "run", "run", "run",
	"contest", "contest", "contest", "contest", "contest",
	"repeat", "repeat", "repeat", "verify",
}

// serveContests are the contested pairs; each runs the first core's
// benchmark.
var serveContests = [][]string{
	{"twolf", "vpr"}, {"mcf", "gcc"}, {"gcc", "crafty"}, {"bzip", "gap"}, {"parser", "perl"},
}

// serveJob is one scheduled submission.
type serveJob struct {
	at     time.Duration // send time, from the start of the window
	spec   []byte
	kind   string
	n      int
	verify bool
	repeat int // index of the job this one repeats exactly, or -1
}

// serveSchedule draws the seeded open-loop schedule for a window: rate ×
// window jobs (at least one block) at arrival times uniform in the window (a Poisson process
// conditioned on its count), in blocks of serveBlock.
func serveSchedule(seed uint64, seconds float64, p params) ([]serveJob, error) {
	rng := rand.New(rand.NewPCG(seed, 0x73657276))
	// At least one block, so every kind of job runs however short the window.
	count := max(int(math.Round(p.serveRate*seconds)), len(serveBlock))
	at := make([]float64, count)
	for i := range at {
		at[i] = rng.Float64() * seconds
	}
	sort.Float64s(at)
	benches := workload.Benchmarks()
	// length spreads the i-th of k runs or contests over [serveNMin, serveNMax].
	length := func(i, k int) int { return p.serveNMin + (p.serveNMax-p.serveNMin)*i/(k-1) }

	jobs := make([]serveJob, 0, count)
	var fresh []int // unverified non-repeats, which a repeat may copy
	var kinds []string
	var runs, contests []int // seeded orders of the block's runs and contests
	for i := 0; i < count; i++ {
		if i%len(serveBlock) == 0 {
			kinds = append(kinds[:0], serveBlock...)
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
			runs, contests = rng.Perm(len(benches)), rng.Perm(len(serveContests))
		}
		kind := kinds[i%len(serveBlock)]
		due := time.Duration(at[i] * float64(time.Second))
		if kind == "repeat" {
			if len(fresh) == 0 {
				kind = "verify" // nothing to repeat yet
			} else {
				src := fresh[rng.IntN(len(fresh))]
				j := jobs[src]
				j.at, j.repeat = due, src
				jobs = append(jobs, j)
				continue
			}
		}
		var sp spec.Spec
		switch kind {
		case "verify":
			bench := benches[rng.IntN(len(benches))]
			sp = spec.Spec{Kind: spec.KindRun, Bench: bench, Cores: []string{bench}, N: p.serveVerifyN, Verify: true}
		case "contest":
			pair := serveContests[contests[0]]
			sp = spec.Spec{Kind: spec.KindContest, Bench: pair[0], Cores: pair, N: length(contests[0], len(serveContests))}
			contests = contests[1:]
		default:
			bench := benches[runs[0]]
			sp = spec.Spec{Kind: spec.KindRun, Bench: bench, Cores: []string{bench}, N: length(runs[0], len(benches))}
			runs = runs[1:]
		}
		if !sp.Verify {
			fresh = append(fresh, len(jobs))
		}
		data, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, serveJob{at: due, spec: data, kind: sp.Kind, n: sp.N, verify: sp.Verify, repeat: -1})
	}
	return jobs, nil
}

// jobView is the part of a facade job snapshot the benchmark reads.
type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Error       string          `json:"error"`
	SubmittedAt *time.Time      `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	FinishedAt  *time.Time      `json:"finished_at"`
	Result      json.RawMessage `json:"result"`
}

// jobRecord is what the load generator and the poller learned of one job.
type jobRecord struct {
	due         time.Time // scheduled send time
	sent, acked time.Time
	id          string
	err         error
	view        jobView
	polls       [][2]time.Time
}

// oneConn returns a client that uses a single connection.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func submit(ctx context.Context, c *http.Client, url string, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", fmt.Errorf("submit: status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted || v.ID == "" {
		return "", fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	return v.ID, nil
}

// terminal reports whether a facade job state is final.
func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// drive runs the open loop over the schedule and polls every accepted job
// to its terminal state. It returns the per-job records and the largest
// number of accepted jobs outstanding at any poll.
func drive(ctx context.Context, coordURL string, jobs []serveJob, start time.Time, drain time.Duration) ([]jobRecord, int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	recs := make([]jobRecord, len(jobs))
	var mu sync.Mutex
	outstanding := map[int]string{}
	genDone := false
	sub, poll := oneConn(), oneConn()
	defer sub.CloseIdleConnections()
	defer poll.CloseIdleConnections()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			mu.Lock()
			genDone = true
			mu.Unlock()
		}()
		for i, j := range jobs {
			select {
			case <-time.After(time.Until(start.Add(j.at))):
			case <-ctx.Done():
				return
			}
			sent := time.Now()
			id, err := submit(ctx, sub, coordURL, j.spec)
			mu.Lock()
			recs[i].sent, recs[i].acked, recs[i].id, recs[i].err = sent, time.Now(), id, err
			if err == nil {
				outstanding[i] = id
			}
			mu.Unlock()
		}
	}()

	backlog := 0
	tick := time.NewTicker(servePoll)
	defer tick.Stop()
	var deadline time.Time
	var pollErr error
	for pollErr == nil {
		select {
		case <-tick.C:
		case <-ctx.Done():
			pollErr = ctx.Err()
			continue
		}
		mu.Lock()
		done := genDone
		pending := make(map[int]string, len(outstanding))
		for i, id := range outstanding {
			pending[i] = id
		}
		mu.Unlock()
		if len(pending) > backlog {
			backlog = len(pending)
		}
		if done && len(pending) == 0 {
			break
		}
		if done && deadline.IsZero() {
			deadline = time.Now().Add(drain)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			pollErr = fmt.Errorf("%d jobs still running %v after the last send", len(pending), drain)
			break
		}
		for i, id := range pending {
			var v jobView
			t0 := time.Now()
			err := getJSON(ctx, poll, coordURL+"/v1/jobs/"+id, &v)
			t1 := time.Now()
			mu.Lock()
			recs[i].polls = append(recs[i].polls, [2]time.Time{t0, t1})
			if err != nil {
				pollErr = fmt.Errorf("polling %s: %w", id, err)
			} else if terminal(v.State) {
				recs[i].view = v
				delete(outstanding, i)
			}
			mu.Unlock()
			if pollErr != nil {
				break
			}
		}
	}
	cancel() // stops the generator early if polling failed
	wg.Wait()
	return recs, backlog, pollErr
}

// passResult is what one pass of the schedule produced.
type passResult struct {
	recs    []jobRecord
	backlog int
	coord   cluster.CoordStats
	store   *timedStore
	hits    int64
	lookups int64
}

// startFleet starts the workload's fleet over store: the set-up step.
func startFleet(store resultcache.Store) (*cluster.Fleet, error) {
	return cluster.StartFleet(serveNodes, cluster.FleetOptions{
		Workers: 1, Parallelism: 1, SharedStore: store,
	})
}

// servePass starts a fleet, replays the schedule on it in segments of
// serveSegment jobs and drains it. Within a segment the arrivals keep their
// Poisson spacing; between segments the fleet drains and the kernel is
// timed while it idles, so every job is calibrated with kernel samples
// about a second apart. Kernel samples taken only between passes, five
// seconds apart, left the latency spreading by a quarter from run to run,
// and a kernel timed while the fleet worked slowed its jobs by half.
func (b *bench) servePass(ctx context.Context, jobs []serveJob, rec *recorder, last bool) (passResult, error) {
	store := &timedStore{Store: resultcache.NewMemStore()}
	store.rec.Store(rec)
	fleet, err := startFleet(store)
	if err != nil {
		return passResult{}, err
	}
	defer fleet.Close()
	res := passResult{store: store, recs: make([]jobRecord, len(jobs))}
	for first := 0; first < len(jobs); first += serveSegment {
		seg := jobs[first:min(first+serveSegment, len(jobs))]
		// Wall clock, comparable with node timestamps; the segment's first
		// job is due now.
		start := time.Now().Round(0).Add(-seg[0].at)
		recs, backlog, err := drive(ctx, fleet.CoordURL, seg, start, serveDrain)
		res.backlog = max(res.backlog, backlog)
		if err != nil {
			return res, err
		}
		for k := range recs {
			recs[k].due = start.Add(seg[k].at)
			res.recs[first+k] = recs[k]
			if rec == nil {
				b.addJob(first+k, seg[k], recs[k])
			}
		}
		b.mark()
	}
	if last {
		b.measureHeap()
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := fleet.Drain(dctx); err != nil {
		return res, fmt.Errorf("draining the fleet: %w", err)
	}
	res.coord = fleet.Coord.Stats()
	for _, n := range fleet.Nodes {
		cs := n.Cache.Stats()
		res.hits += cs.Hits
		res.lookups += cs.Hits + cs.Misses
	}
	return res, nil
}

// addJob records a finished job's latency, and its run time when it is a
// fresh, unverified run or contest: repeats may be cache hits and verified
// runs carry the checker, so neither measures simulation throughput.
func (b *bench) addJob(i int, j serveJob, r jobRecord) {
	v := r.view
	if r.err != nil || v.State != "done" || v.StartedAt == nil || v.FinishedAt == nil {
		return
	}
	job := fmt.Sprintf("job %d", i)
	b.add(&b.ops, job, v.FinishedAt.Sub(r.due).Seconds())
	run := v.FinishedAt.Sub(*v.StartedAt).Seconds()
	switch {
	case j.repeat >= 0 || j.verify:
	case j.kind == spec.KindRun:
		b.add(&b.singles, job, run)
	default:
		b.add(&b.contests, job, run)
	}
}

func runServe(ctx context.Context, b *bench) error {
	window := b.seconds / servePasses
	var jobs []serveJob
	err := b.setup(func() error {
		fleet, err := startFleet(resultcache.NewMemStore())
		if err != nil {
			return err
		}
		fleet.Close()
		jobs, err = serveSchedule(b.seed, window, b.p)
		return err
	})
	if err != nil {
		return err
	}
	// Every pass runs on a fresh fleet over a fresh store. Odd passes are
	// traced when tracing; the others feed the end-to-end metrics.
	passes := make([]passResult, servePasses)
	for r := range passes {
		res, err := b.servePass(ctx, jobs, b.rec.when(r%2 == 1), r == servePasses-1)
		if err != nil {
			return fmt.Errorf("pass %d: %w", r, err)
		}
		passes[r] = res
	}

	type payload struct {
		Run     *struct{ Insts int64 } `json:"run"`
		Contest *struct{ Insts int64 } `json:"contest"`
	}
	h := sha256.New()
	var latSum, queueSum, runSum, submitSum, lateSum float64
	for r, pass := range passes {
		traced := b.rec != nil && r%2 == 1
		var lats []float64
		for i, j := range jobs {
			rr := pass.recs[i]
			v := rr.view
			ok := rr.err == nil && v.State == "done" && v.StartedAt != nil && v.FinishedAt != nil && v.SubmittedAt != nil
			b.check(ok, "pass %d job %d (%s): submit error %v, state %q, error %q", r, i, j.spec, rr.err, v.State, v.Error)
			if !ok {
				continue
			}
			var out payload
			insts := int64(-1)
			if err := json.Unmarshal(v.Result, &out); err == nil {
				switch {
				case out.Run != nil:
					insts = out.Run.Insts
				case out.Contest != nil:
					insts = out.Contest.Insts
				}
			}
			b.check(insts == int64(j.n), "pass %d job %d (%s) retired %d of %d instructions", r, i, j.spec, insts, j.n)
			switch {
			case j.repeat >= 0:
				b.check(bytes.Equal(v.Result, pass.recs[j.repeat].view.Result), "pass %d job %d repeats job %d but returned a different result", r, i, j.repeat)
			case r == 0:
				h.Write(j.spec)
				h.Write(v.Result)
			default:
				b.check(bytes.Equal(v.Result, passes[0].recs[i].view.Result), "pass %d job %d returned a different result than in pass 0", r, i)
			}

			lat := v.FinishedAt.Sub(rr.due).Seconds()
			run := v.FinishedAt.Sub(*v.StartedAt).Seconds()
			lats = append(lats, lat)
			if traced {
				req := fmt.Sprintf("job %d", i)
				root := b.rec.add(0, "serve", "job "+j.kind, req, rr.due, *v.FinishedAt)
				b.rec.add(root, "cluster", "submit", req, rr.sent, rr.acked)
				b.rec.add(root, "jobs", "queue", req, *v.SubmittedAt, *v.StartedAt)
				b.rec.add(root, "jobs", "run", req, *v.StartedAt, *v.FinishedAt)
				for _, p := range rr.polls {
					b.rec.add(root, "cluster", "poll", req, p[0], p[1])
				}
				continue
			}
			latSum += lat
			queueSum += v.StartedAt.Sub(*v.SubmittedAt).Seconds()
			runSum += run
			submitSum += rr.acked.Sub(rr.sent).Seconds()
			lateSum += rr.sent.Sub(rr.due).Seconds()
		}
		// For serve the tracing overhead compares median job latencies.
		if traced {
			b.tracedRoundWalls = append(b.tracedRoundWalls, median(lats))
			b.tracedWall += window
		} else {
			b.roundWalls = append(b.roundWalls, median(lats))
		}
	}
	b.digest = h.Sum(nil)

	// One operation is one job at its median calibrated latency across the
	// untraced passes; the operation time is the geometric mean over the
	// block's jobs. Over ten seeds it spread 15% against 19% for the median
	// over jobs, which jumps between the gaps of a 20-job distribution.
	var wall []float64
	for _, job := range b.ops.order {
		b.opSamples = append(b.opSamples, b.ops.median(job, true))
		wall = append(wall, b.ops.median(job, false))
	}
	b.op = timed{geomean(b.opSamples), geomean(wall)}
	for i, j := range jobs {
		job := fmt.Sprintf("job %d", i)
		if _, ok := b.singles.samples[job]; ok {
			b.singleInsts += float64(j.n)
		}
		if _, ok := b.contests.samples[job]; ok {
			b.contestInsts += float64(j.n)
		}
	}

	m := b.layer
	if latSum > 0 {
		m["jobs.queue_share"] = queueSum / latSum
		m["jobs.run_share"] = runSum / latSum
		m["cluster.submit_share"] = submitSum / latSum
		m["serve.late_share"] = lateSum / latSum
	}
	var hits, lookups int64
	for _, pass := range passes {
		m["cluster.sheds"] += float64(pass.coord.Sheds)
		m["cluster.reroutes"] += float64(pass.coord.Reroutes)
		m["serve.backlog_max"] = max(m["serve.backlog_max"], float64(pass.backlog))
		m["resultcache.gets"] += float64(pass.store.gets.Load())
		m["resultcache.puts"] += float64(pass.store.puts.Load())
		m["resultcache.put_bytes"] += float64(pass.store.putBytes.Load())
		hits += pass.hits
		lookups += pass.lookups
	}
	if lookups > 0 {
		m["resultcache.hit_ratio"] = float64(hits) / float64(lookups)
	}
	if b.rec != nil {
		return b.probeLayers(ctx)
	}
	return nil
}
