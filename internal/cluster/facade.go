package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the coordinator's cluster-wide /v1/jobs facade. The
// surface mirrors a node's API, so any client of one serve daemon works
// unchanged against a fleet:
//
//	POST   /v1/jobs             validate, route, and place a spec; 202
//	                            with a cluster-wide job ID, or 503 +
//	                            Retry-After when every node sheds
//	GET    /v1/jobs             list all facade job snapshots
//	GET    /v1/jobs/{id}        one snapshot; ?watch=1 streams NDJSON and
//	                            always ends with a terminal event, even
//	                            when the owning node dies mid-stream
//	GET    /v1/jobs/{id}/result the terminal outcome (409 while running)
//	GET    /v1/jobs/{id}/trace  proxied Chrome/Perfetto timeline
//	DELETE /v1/jobs/{id}        cancel wherever the job currently lives
//	GET    /healthz             coordinator + per-node fleet health
//
// Facade snapshots carry three extra fields over node snapshots: "node"
// (the owning node URL), "attempts"/"retries" (placements so far), and a
// coordinator-side "seq" that stays monotonic across reroutes (a re-placed
// job's node-side seq restarts; its "done" progress may honestly restart
// with it).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.healthz)
	mux.HandleFunc("POST /v1/jobs", c.submit)
	mux.HandleFunc("GET /v1/jobs", c.list)
	mux.HandleFunc("GET /v1/jobs/{id}", c.get)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.result)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.trace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.cancel)
	return mux
}

func (c *Coordinator) healthz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	draining := c.draining
	perNode := make(map[string]int)
	for _, j := range c.jobs {
		j.mu.Lock()
		if !j.terminal {
			perNode[j.node]++
		}
		j.mu.Unlock()
	}
	c.mu.Unlock()
	h := Health{Status: "ok"}
	if draining {
		h.Status = "draining"
	}
	for _, ns := range c.nodes {
		h.Nodes = append(h.Nodes, NodeHealth{
			URL:     ns.url,
			Healthy: ns.healthy.Load(),
			Pending: int(ns.pending.Load()),
			Running: int(ns.running.Load()),
			Jobs:    perNode[ns.url],
		})
		h.Pending += int(ns.pending.Load())
		h.Running += int(ns.running.Load())
	}
	writeJSON(w, http.StatusOK, h)
}

func (c *Coordinator) submit(w http.ResponseWriter, r *http.Request) {
	sp, ok := readSpec(w, r)
	if !ok {
		return
	}
	// Validate here so a bad spec is a crisp 422 from the coordinator, not
	// a relayed node error after a wasted placement round-trip.
	if err := sp.Validate(); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Forward the normalized form: re-marshaling after Validate pins the
	// inferred kind and defaults, so a reroute re-submits exactly the
	// scenario the first node ran.
	norm, err := json.Marshal(sp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		writeShed(w, http.StatusServiceUnavailable, "5",
			fmt.Errorf("cluster: coordinator is draining, not accepting new jobs"))
		return
	}
	c.nextID++
	j := &coordJob{
		id:       fmt.Sprintf("cj-%04d", c.nextID),
		rawSpec:  norm,
		routeKey: sp.RouteKey(),
		done:     make(chan struct{}),
	}
	// Count the job under the draining check, before placement: a Drain
	// that starts while this job is being placed must wait for it
	// (locked by TestFacadeDrainWaitsForPlacement).
	c.wg.Add(1)
	c.mu.Unlock()

	if !c.place(j, "") {
		c.wg.Done()
		c.rejected.Add(1)
		writeShed(w, http.StatusServiceUnavailable, "1",
			fmt.Errorf("cluster: no node accepted the job (all draining, saturated, or down)"))
		return
	}
	c.submits.Add(1)

	c.mu.Lock()
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.mu.Unlock()
	go c.monitor(j)

	v, _, _ := j.view(false)
	writeJSON(w, http.StatusAccepted, v)
}

func (c *Coordinator) list(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	views := make([]map[string]any, 0, len(c.order))
	for _, id := range c.order {
		v, _, _ := c.jobs[id].view(false)
		views = append(views, v)
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (c *Coordinator) job(w http.ResponseWriter, r *http.Request) (*coordJob, bool) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return j, ok
}

func (c *Coordinator) get(w http.ResponseWriter, r *http.Request) {
	j, ok := c.job(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("watch") == "" {
		v, _, _ := j.view(true)
		writeJSON(w, http.StatusOK, v)
		return
	}
	// The stream is fed by the job's monitor, not by a node connection,
	// so it carries a reroute across a node death and always ends with a
	// terminal line (done, failed, including failed by node loss, or
	// cancelled).
	notify, release := j.subscribe()
	defer release()
	watchStream(w, r, notify, j.done, func() (any, int64, bool) { return j.view(true) })
}

func (c *Coordinator) result(w http.ResponseWriter, r *http.Request) {
	j, ok := c.job(w, r)
	if !ok {
		return
	}
	v, _, terminal := j.view(true)
	if !terminal {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %v", j.id, v["state"]))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// trace proxies the recorded timeline from the owning node (the one
// payload the coordinator does not mirror: it can be large and is only
// fetched on demand).
func (c *Coordinator) trace(w http.ResponseWriter, r *http.Request) {
	j, ok := c.job(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	node, remoteID, failErr := j.node, j.remoteID, j.failErr
	j.mu.Unlock()
	if failErr != "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("job %s failed before a trace could be recorded: %s", j.id, failErr))
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		node+"/v1/jobs/"+remoteID+"/trace", nil)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("node %s unreachable: %w", node, err))
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (c *Coordinator) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := c.job(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	j.cancelled = true
	node, remoteID := j.node, j.remoteID
	j.mu.Unlock()
	// Best effort: if the node is unreachable the monitor's failover path
	// observes j.cancelled and finalizes the record as cancelled.
	req, err := http.NewRequestWithContext(r.Context(), http.MethodDelete,
		node+"/v1/jobs/"+remoteID, nil)
	if err == nil {
		if resp, err := c.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	v, _, _ := j.view(false)
	writeJSON(w, http.StatusAccepted, v)
}
