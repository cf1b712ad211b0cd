package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"archcontest/internal/jobs"
)

// CoordOptions configures a Coordinator. Placement always ranks the
// healthy nodes by cache affinity (Rank), and one job is placed on at most
// three nodes (maxAttempts).
type CoordOptions struct {
	// Nodes are the fleet nodes' base URLs ("http://host:port").
	Nodes []string
	// ProbeInterval is the health-probe period (default 500ms).
	ProbeInterval time.Duration
}

// maxAttempts bounds how many nodes one job may be placed on before the
// coordinator declares it failed: the initial placement plus two reroutes.
const maxAttempts = 3

// CoordStats counts coordinator traffic.
type CoordStats struct {
	// Submits counts accepted facade submissions.
	Submits int64 `json:"submits"`
	// AffinityHits is the subset of Submits placed on the route key's
	// first-ranked node — the placements that can reuse a warm cache.
	AffinityHits int64 `json:"affinity_hits"`
	// Sheds counts node-level refusals (429/503/unreachable) stepped over
	// during placement.
	Sheds int64 `json:"sheds"`
	// Rejected counts submissions no node would accept (facade 503s).
	Rejected int64 `json:"rejected"`
	// Reroutes counts successful mid-job re-placements after a node died.
	Reroutes int64 `json:"reroutes"`
	// Lost counts jobs declared failed because every reroute was
	// exhausted. (The job surfaces as state "failed" with a cause — lost
	// here means lost capacity, never a silently dropped record.)
	Lost int64 `json:"lost"`
}

// Coordinator shards scenario specs across fleet nodes and fronts them
// with a cluster-wide /v1/jobs facade. See the package comment for the
// design; construct with NewCoordinator, serve Handler, stop with Drain
// (graceful) and/or Close (hard).
type Coordinator struct {
	opts CoordOptions
	// client issues every node request. It carries no global timeout,
	// because watch streams are long-lived; other requests bound
	// themselves with rpcTimeout.
	client *http.Client
	ctx    context.Context
	stop   context.CancelFunc

	nodes []*nodeState // fixed set, CoordOptions.Nodes order

	mu       sync.Mutex
	jobs     map[string]*coordJob
	order    []string
	nextID   int64
	draining bool
	wg       sync.WaitGroup // one count per job being placed or monitored

	submits, affinityHits, sheds, rejected, reroutes, lost atomic.Int64
}

// nodeState is the coordinator's live view of one node.
type nodeState struct {
	url     string
	healthy atomic.Bool
	pending atomic.Int64
	running atomic.Int64
}

// NewCoordinator builds a coordinator over the node set and performs one
// synchronous probe round so routing works immediately. Callers must
// eventually call Close (Drain alone leaves the probe loop running).
func NewCoordinator(opts CoordOptions) *Coordinator {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:   opts,
		client: &http.Client{},
		ctx:    ctx,
		stop:   cancel,
		jobs:   make(map[string]*coordJob),
	}
	for _, u := range opts.Nodes {
		c.nodes = append(c.nodes, &nodeState{url: u})
	}
	c.probeAll()
	go c.probeLoop()
	return c
}

// Close hard-stops the coordinator: probes end and every monitor's node
// stream is torn down. In-flight node jobs keep running on their nodes;
// use Drain first for a graceful stop.
func (c *Coordinator) Close() { c.stop() }

// Drain stops accepting new submissions and waits until every accepted
// job is terminal, or ctx ends (ctx.Err() is returned and the remaining
// monitors keep running).
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats reports the traffic counters.
func (c *Coordinator) Stats() CoordStats {
	return CoordStats{
		Submits:      c.submits.Load(),
		AffinityHits: c.affinityHits.Load(),
		Sheds:        c.sheds.Load(),
		Rejected:     c.rejected.Load(),
		Reroutes:     c.reroutes.Load(),
		Lost:         c.lost.Load(),
	}
}

// probeLoop refreshes node health every ProbeInterval until Close.
func (c *Coordinator) probeLoop() {
	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
			c.probeAll()
		}
	}
}

// rpcTimeout bounds probe, placement and liveness requests. It scales with
// the probe interval but never drops below a floor: a node that is merely
// slow under load must not be mistaken for a dead one (hard death shows up
// as an immediate connection error anyway, so a generous floor does not
// delay fault detection).
func (c *Coordinator) rpcTimeout() time.Duration {
	d := 4 * c.opts.ProbeInterval
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, ns := range c.nodes {
		wg.Add(1)
		go func(ns *nodeState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(c.ctx, c.rpcTimeout())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ns.url+"/healthz", nil)
			if err != nil {
				ns.healthy.Store(false)
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				ns.healthy.Store(false)
				return
			}
			defer resp.Body.Close()
			var h Health
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
				ns.healthy.Store(false)
				return
			}
			ns.pending.Store(int64(h.Pending))
			ns.running.Store(int64(h.Running))
			ns.healthy.Store(true)
		}(ns)
	}
	wg.Wait()
}

// healthyNodes returns the live node URLs in configuration order.
func (c *Coordinator) healthyNodes() []string {
	out := make([]string, 0, len(c.nodes))
	for _, ns := range c.nodes {
		if ns.healthy.Load() {
			out = append(out, ns.url)
		}
	}
	return out
}

func (c *Coordinator) nodeState(url string) *nodeState {
	for _, ns := range c.nodes {
		if ns.url == url {
			return ns
		}
	}
	return nil
}

// coordJob is the coordinator's record of one facade job. It is the
// durable identity a client holds: node-side jobs may die and be re-placed
// underneath it, but the coordJob always ends in exactly one terminal
// state.
type coordJob struct {
	id       string
	rawSpec  []byte
	routeKey string

	mu        sync.Mutex
	node      string         // owning node URL
	remoteID  string         // node-side job ID
	attempts  int            // placements so far (1 = never rerouted)
	lastView  map[string]any // latest node-side snapshot (terminal one embeds the result)
	seq       int64          // coordinator-side monotonic sequence
	cancelled bool
	terminal  bool
	failErr   string // coordinator-declared failure (node loss)

	done  chan struct{}
	watch jobs.Notifier
}

// update ingests a node-side snapshot line and wakes facade watchers.
// The node's seq restarts after a reroute, so the facade maintains its own
// monotonic sequence. A terminal line finalizes the record under the same
// lock, so no reader sees a terminal state without its result. It reports
// whether the line was terminal.
func (j *coordJob) update(line map[string]any) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lastView = line
	switch state, _ := line["state"].(string); state {
	case "done", "failed", "cancelled":
		j.markTerminalLocked("")
		return true
	}
	j.bumpLocked()
	return false
}

func (j *coordJob) bumpLocked() {
	j.seq++
	j.watch.Notify()
}

// markTerminal finalizes the record exactly once. A non-empty failErr
// declares a coordinator-level failure (node loss) that overrides
// whatever the last node snapshot said.
func (j *coordJob) markTerminal(failErr string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.markTerminalLocked(failErr)
}

func (j *coordJob) markTerminalLocked(failErr string) {
	if j.terminal {
		return
	}
	j.terminal = true
	j.failErr = failErr
	j.bumpLocked()
	close(j.done)
}

func (j *coordJob) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminal
}

// view renders the facade's client-facing snapshot: the node's latest
// snapshot under the cluster-wide identity, annotated with placement
// metadata. withResult=false strips the (potentially large) embedded
// result for list views.
func (j *coordJob) view(withResult bool) (map[string]any, int64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := make(map[string]any, len(j.lastView)+4)
	for k, val := range j.lastView {
		v[k] = val
	}
	v["id"] = j.id
	v["node"] = j.node
	v["attempts"] = j.attempts
	v["retries"] = j.attempts - 1
	v["seq"] = j.seq
	if j.failErr != "" {
		v["state"] = "failed"
		v["error"] = j.failErr
		delete(v, "result")
	} else if j.terminal && j.cancelled {
		// The node may have died before reporting the cancellation; don't
		// leave a terminal record claiming to still be running.
		if s, _ := v["state"].(string); s != "done" && s != "failed" && s != "cancelled" {
			v["state"] = "cancelled"
		}
	}
	if !withResult || !j.terminal {
		delete(v, "result")
	}
	return v, j.seq, j.terminal
}

// ---- placement and monitoring ----

// postJob submits raw spec JSON to a node within rpcTimeout, so a node
// that answers probes but stalls on submissions cannot hang placement
// (locked by TestFacadePlacementDeadline). It returns the HTTP status and
// the decoded response body (nil on undecodable bodies).
func (c *Coordinator) postJob(node string, raw []byte) (int, map[string]any, error) {
	ctx, cancel := context.WithTimeout(c.ctx, c.rpcTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var body map[string]any
	json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body)
	return resp.StatusCode, body, nil
}

// place puts the job on the first node, in Rank order over the healthy
// nodes, that accepts it. It reports whether a node accepted;
// shed/unreachable nodes are stepped over.
func (c *Coordinator) place(j *coordJob, exclude string) bool {
	for i, node := range Rank(j.routeKey, c.healthyNodes()) {
		if node == exclude {
			continue
		}
		status, body, err := c.postJob(node, j.rawSpec)
		if err != nil {
			// Node unreachable or stalled past rpcTimeout before the
			// prober noticed: mark it down so subsequent placements skip
			// it immediately.
			if ns := c.nodeState(node); ns != nil {
				ns.healthy.Store(false)
			}
			c.sheds.Add(1)
			continue
		}
		if status == http.StatusAccepted {
			remoteID, _ := body["id"].(string)
			j.mu.Lock()
			j.node = node
			j.remoteID = remoteID
			j.attempts++
			j.lastView = body
			j.bumpLocked()
			j.mu.Unlock()
			if i == 0 && exclude == "" {
				c.affinityHits.Add(1)
			}
			return true
		}
		// 429/503: the node shed us; fall through to the next choice.
		c.sheds.Add(1)
	}
	return false
}

// monitor follows one job to its terminal state: it streams the owning
// node's watch endpoint, mirrors every snapshot into the coordJob, and —
// when the node dies mid-job — re-places the job on a surviving node
// (bounded by maxAttempts) or declares it failed. Exactly one monitor runs
// per job; it is the only goroutine that marks the job terminal.
func (c *Coordinator) monitor(j *coordJob) {
	defer c.wg.Done()
	for {
		terminal := c.watchOnce(j)
		if terminal {
			return
		}
		if c.ctx.Err() != nil {
			// Hard shutdown (Close): surface a terminal event so no
			// facade watcher hangs, without claiming anything about the
			// node-side job.
			j.markTerminal("coordinator shut down while the job was in flight")
			return
		}
		if c.remoteAlive(j) {
			// Transient stream break: the node still has the job; resume
			// watching (unless the recheck already observed the terminal
			// snapshot).
			if j.isTerminal() {
				return
			}
			continue
		}
		// The owning node is gone (or lost the job). Reroute or fail —
		// never leave the record non-terminal.
		j.mu.Lock()
		cancelled := j.cancelled
		attempts := j.attempts
		dead := j.node
		j.mu.Unlock()
		if cancelled {
			j.markTerminal("")
			return
		}
		if attempts >= maxAttempts {
			c.lost.Add(1)
			j.markTerminal(fmt.Sprintf("node %s died and the job exhausted its %d placements", dead, attempts))
			return
		}
		if !c.place(j, dead) {
			c.lost.Add(1)
			j.markTerminal(fmt.Sprintf("node %s died and no surviving node accepted the job", dead))
			return
		}
		c.reroutes.Add(1)
	}
}

// watchOnce streams the owning node's watch endpoint into the coordJob.
// It returns true when a terminal snapshot was observed (the job record is
// finalized), false when the stream ended first.
func (c *Coordinator) watchOnce(j *coordJob) bool {
	j.mu.Lock()
	node, remoteID := j.node, j.remoteID
	j.mu.Unlock()
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet,
		node+"/v1/jobs/"+remoteID+"?watch=1", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line map[string]any
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			return false
		}
		if j.update(line) {
			return true
		}
	}
	return false
}

// remoteAlive checks whether the owning node still has the job after a
// stream break (distinguishing a transient disconnect from node death).
func (c *Coordinator) remoteAlive(j *coordJob) bool {
	j.mu.Lock()
	node, remoteID := j.node, j.remoteID
	j.mu.Unlock()
	ctx, cancel := context.WithTimeout(c.ctx, c.rpcTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ns := c.nodeState(node); ns != nil {
			ns.healthy.Store(false)
		}
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var line map[string]any
	if json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&line) != nil {
		return false
	}
	j.update(line)
	return true
}
