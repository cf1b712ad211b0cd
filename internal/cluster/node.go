package cluster

import (
	"fmt"
	"net/http"

	"archcontest/internal/jobs"
	"archcontest/internal/resultcache"
	"archcontest/internal/spec"
)

// NodeOptions configures one fleet node's HTTP surface.
type NodeOptions struct {
	// MaxQueue bounds the runner's accepted-but-not-running jobs; once
	// full, submissions are shed with 429 + Retry-After instead of
	// buffering unboundedly (0 = unbounded).
	MaxQueue int
	// Cache, if non-nil, is reported in /healthz so fleet-level hit rates
	// can be aggregated remotely.
	Cache *resultcache.Cache
	// Blobs, if non-nil, mounts resultcache.BlobHandler at /v1/blobs/,
	// letting other fleet members use this node as their remote result
	// tier (what cmd/serve -cache.serve turns on).
	Blobs resultcache.Store
}

// NewNode builds the node HTTP API over a runner:
//
//	POST   /v1/jobs             submit a spec; 202, or 429/503 under load
//	GET    /v1/jobs             list all job snapshots
//	GET    /v1/jobs/{id}        one snapshot; ?watch=1 streams NDJSON
//	GET    /v1/jobs/{id}/result the terminal outcome (409 while running)
//	GET    /v1/jobs/{id}/trace  the recorded Chrome/Perfetto timeline
//	DELETE /v1/jobs/{id}        cancel the job
//	GET    /healthz             liveness + queue occupancy + cache stats
//	{GET,PUT,DELETE} /v1/blobs/{key}  (only with Options.Blobs)
func NewNode(r *jobs.Runner, opts NodeOptions) http.Handler {
	if opts.MaxQueue > 0 {
		r.SetMaxQueue(opts.MaxQueue)
	}
	a := &nodeAPI{runner: r, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.healthz)
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs", a.list)
	mux.HandleFunc("GET /v1/jobs/{id}", a.get)
	mux.HandleFunc("GET /v1/jobs/{id}/result", a.result)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", a.trace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	if opts.Blobs != nil {
		mux.Handle("/v1/blobs/", resultcache.BlobHandler(opts.Blobs))
	}
	return mux
}

// nodeAPI serves the /v1 job interface of one node.
type nodeAPI struct {
	runner *jobs.Runner
	opts   NodeOptions
}

// jobView is a snapshot plus, once terminal, the outcome payload.
type jobView struct {
	jobs.Snapshot
	Result *spec.Outcome `json:"result,omitempty"`
}

func view(j *jobs.Job, withResult bool) jobView {
	v := jobView{Snapshot: j.Snapshot()}
	if withResult && v.State.Terminal() {
		if out, err := j.Outcome(); err == nil {
			v.Result = out
		}
	}
	return v
}

func (a *nodeAPI) healthz(w http.ResponseWriter, _ *http.Request) {
	pending, running := a.runner.Load()
	h := Health{
		Status:   "ok",
		Pending:  pending,
		Running:  running,
		Workers:  a.runner.Workers(),
		MaxQueue: a.opts.MaxQueue,
	}
	if a.opts.Cache != nil {
		st := a.opts.Cache.Stats()
		h.Cache = &st
	}
	writeJSON(w, http.StatusOK, h)
}

func (a *nodeAPI) submit(w http.ResponseWriter, r *http.Request) {
	sp, ok := readSpec(w, r)
	if !ok {
		return
	}
	j, err := a.runner.Submit(sp)
	switch {
	case err == jobs.ErrBusy:
		// Shed load: the queue bound exists precisely so a saturated node
		// answers fast instead of buffering; a coordinator reroutes, a
		// direct client backs off.
		writeShed(w, http.StatusTooManyRequests, "1", err)
		return
	case err == jobs.ErrDraining:
		writeShed(w, http.StatusServiceUnavailable, "5", err)
		return
	case err != nil:
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusAccepted, view(j, false))
}

func (a *nodeAPI) list(w http.ResponseWriter, _ *http.Request) {
	all := a.runner.Jobs()
	views := make([]jobView, 0, len(all))
	for _, j := range all {
		views = append(views, view(j, false))
	}
	writeJSON(w, http.StatusOK, views)
}

func (a *nodeAPI) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := a.runner.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return j, ok
}

func (a *nodeAPI) get(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, view(j, true))
		return
	}
	// Lines carry no result until the terminal one, which embeds it
	// (including the archcontest-obs-v1 metrics of recorded jobs).
	notify, release := j.Subscribe()
	defer release()
	watchStream(w, r, notify, j.Done(), func() (any, int64, bool) {
		snap := j.Snapshot()
		if snap.State.Terminal() {
			return view(j, true), snap.Seq, true
		}
		return jobView{Snapshot: snap}, snap.Seq, false
	})
}

func (a *nodeAPI) result(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	snap := j.Snapshot()
	if !snap.State.Terminal() {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s", snap.ID, snap.State))
		return
	}
	writeJSON(w, http.StatusOK, view(j, true))
}

func (a *nodeAPI) trace(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	snap := j.Snapshot()
	if !snap.State.Terminal() {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s", snap.ID, snap.State))
		return
	}
	out, err := j.Outcome()
	if err != nil || out == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s has no result", snap.ID))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := out.WriteChromeTrace(w); err != nil {
		writeErr(w, http.StatusNotFound, err)
	}
}

func (a *nodeAPI) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, view(j, false))
}
