// Package jobs is the asynchronous execution layer over internal/spec: a
// Runner accepts validated scenario specs, executes them on a bounded
// worker pool (the same semaphore discipline the experiments Lab uses for
// its leaves), and exposes per-job cancellation, progress snapshots, and
// outcomes. The serve daemon and any embedding process drive simulations
// exclusively through this interface.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"archcontest/internal/experiments"
	"archcontest/internal/spec"
)

// State is a job's lifecycle state. Transitions are monotonic:
// queued -> running -> (done | failed | cancelled), with queued -> cancelled
// allowed for jobs cancelled before a worker slot freed.
type State int32

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// MarshalText makes State render as its name in JSON snapshots.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// Snapshot is a point-in-time view of a job. Successive snapshots of one
// job are monotonic: Seq never decreases, Done never decreases, and State
// only advances.
type Snapshot struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Seq increments on every observable update (progress, state change),
	// so watchers can cheaply detect "anything new?".
	Seq int64 `json:"seq"`
	// Done/Total report execution progress in the spec's progress unit
	// (spec.ProgressTotal): retired instructions out of n for run and
	// contest, annealing steps for explore, both from submission on. They
	// stay zero for experiment and matrix kinds; watch Campaign instead.
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// Campaign counts executed leaf work for experiment/matrix kinds.
	Campaign *experiments.CampaignStats `json:"campaign,omitempty"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// ErrBusy is returned by Submit when the runner's bounded queue is full:
// the caller should shed load (HTTP nodes answer 429 with Retry-After)
// rather than buffer unboundedly.
var ErrBusy = errors.New("jobs: queue full")

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("jobs: runner is draining, not accepting new jobs")

// Job is one submitted scenario.
type Job struct {
	id   string
	spec spec.Spec

	cancel context.CancelFunc
	done   chan struct{}

	state atomic.Int32
	seq   atomic.Int64
	prog  atomic.Int64 // done units
	total atomic.Int64

	watch Notifier

	mu         sync.Mutex
	statsFn    func() experiments.CampaignStats
	outcome    *spec.Outcome
	err        error
	submitted  time.Time
	startedAt  time.Time
	finishedAt time.Time
}

// ID reports the job's runner-unique identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's (normalized) scenario.
func (j *Job) Spec() spec.Spec { return j.spec }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cooperative cancellation. Safe to call at any time,
// from any goroutine, repeatedly.
func (j *Job) Cancel() { j.cancel() }

// Outcome returns the job's result once it is terminal: the outcome for
// done jobs, the failure (or context error) otherwise.
func (j *Job) Outcome() (*spec.Outcome, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcome, j.err
}

// Snapshot captures the job's current state. Monotonic across calls.
func (j *Job) Snapshot() Snapshot {
	// Read the sequence counter first: if anything advances mid-snapshot
	// the next snapshot carries a larger Seq, preserving monotonicity of
	// the (Seq, fields) stream.
	seq := j.seq.Load()
	s := Snapshot{
		ID:    j.id,
		Kind:  j.spec.Kind,
		State: State(j.state.Load()),
		Seq:   seq,
		Done:  j.prog.Load(),
		Total: j.total.Load(),
	}
	j.mu.Lock()
	s.SubmittedAt = j.submitted
	if !j.startedAt.IsZero() {
		t := j.startedAt
		s.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		s.FinishedAt = &t
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	statsFn := j.statsFn
	j.mu.Unlock()
	if statsFn != nil {
		st := statsFn()
		s.Campaign = &st
	}
	return s
}

// Subscribe registers a watcher (see Notifier.Subscribe), notified
// whenever the job's sequence counter advances, into a terminal state too.
func (j *Job) Subscribe() (<-chan struct{}, func()) { return j.watch.Subscribe() }

// Watchers reports the number of live subscriptions.
func (j *Job) Watchers() int { return j.watch.Watchers() }

func (j *Job) bump() {
	j.seq.Add(1)
	j.watch.Notify()
}

func (j *Job) setState(s State) {
	j.state.Store(int32(s))
	j.bump()
}

// Runner executes submitted jobs on a bounded worker pool.
type Runner struct {
	env *spec.Env
	sem chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int64
	draining bool
	maxQueue int
	pending  int // accepted, waiting for a worker slot
	running  int // holding a worker slot
	wg       sync.WaitGroup
}

// NewRunner builds a runner over the environment with the given worker
// bound (0 = 1). Note the worker bound gates whole jobs; each campaign
// job additionally fans out internally under its Lab's parallelism.
func NewRunner(env *spec.Env, workers int) *Runner {
	if workers < 1 {
		workers = 1
	}
	if env == nil {
		env = spec.NewEnv(nil)
	}
	return &Runner{
		env:  env,
		sem:  make(chan struct{}, workers),
		jobs: make(map[string]*Job),
	}
}

// SetMaxQueue bounds the number of accepted-but-not-yet-running jobs
// (0 = unbounded, the default). Once the bound is reached Submit returns
// ErrBusy — the backpressure signal a fleet node converts into a 429.
func (r *Runner) SetMaxQueue(n int) {
	r.mu.Lock()
	r.maxQueue = n
	r.mu.Unlock()
}

// Load reports the runner's instantaneous occupancy: jobs waiting for a
// worker slot and jobs holding one.
func (r *Runner) Load() (pending, running int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending, r.running
}

// Workers reports the size of the worker pool.
func (r *Runner) Workers() int { return cap(r.sem) }

// Submit validates the spec and enqueues it. The returned job is queued
// until a worker slot frees, then runs to a terminal state. Submission
// fails once Drain has begun (ErrDraining), when the bounded queue is full
// (ErrBusy), and on an invalid spec.
func (r *Runner) Submit(sp spec.Spec) (*Job, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		spec:      sp,
		cancel:    cancel,
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	j.total.Store(sp.ProgressTotal())

	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	if r.maxQueue > 0 && r.pending >= r.maxQueue {
		r.mu.Unlock()
		cancel()
		return nil, ErrBusy
	}
	r.pending++
	r.nextID++
	j.id = fmt.Sprintf("job-%04d", r.nextID)
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.wg.Add(1)
	r.mu.Unlock()

	go r.run(ctx, j)
	return j, nil
}

func (r *Runner) run(ctx context.Context, j *Job) {
	defer r.wg.Done()
	select {
	case r.sem <- struct{}{}:
		r.mu.Lock()
		r.pending--
		r.running++
		r.mu.Unlock()
		defer func() {
			r.mu.Lock()
			r.running--
			r.mu.Unlock()
			<-r.sem
		}()
	case <-ctx.Done():
		r.mu.Lock()
		r.pending--
		r.mu.Unlock()
		r.finish(j, nil, ctx.Err())
		return
	}
	j.mu.Lock()
	j.startedAt = time.Now()
	j.mu.Unlock()
	j.setState(StateRunning)

	hooks := spec.Hooks{
		Progress: func(done, total int64) {
			j.prog.Store(done)
			j.total.Store(total)
			j.bump()
		},
		Campaign: func(stats func() experiments.CampaignStats) {
			j.mu.Lock()
			j.statsFn = stats
			j.mu.Unlock()
			j.bump()
		},
	}
	out, err := spec.Execute(ctx, j.spec, r.env, hooks)
	r.finish(j, out, err)
}

func (r *Runner) finish(j *Job, out *spec.Outcome, err error) {
	j.mu.Lock()
	j.outcome = out
	j.err = err
	j.finishedAt = time.Now()
	j.mu.Unlock()
	switch {
	case err == nil:
		j.setState(StateDone)
	case isCancel(err):
		j.setState(StateCancelled)
	default:
		j.setState(StateFailed)
	}
	close(j.done)
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Get returns a job by ID.
func (r *Runner) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (r *Runner) Jobs() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.jobs[id])
	}
	return out
}

// Cancel cancels the identified job. It reports whether the job exists.
func (r *Runner) Cancel(id string) bool {
	j, ok := r.Get(id)
	if ok {
		j.Cancel()
	}
	return ok
}

// CancelAll cancels every non-terminal job (the hard-stop path).
func (r *Runner) CancelAll() {
	for _, j := range r.Jobs() {
		j.Cancel()
	}
}

// Drain stops accepting new submissions and waits for every accepted job
// to reach a terminal state, or for ctx to end (in which case the
// remaining jobs keep running and Drain returns ctx.Err()). Safe to call
// more than once.
func (r *Runner) Drain(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
