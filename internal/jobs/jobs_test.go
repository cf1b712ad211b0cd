package jobs

import (
	"context"
	"testing"
	"time"

	"archcontest/internal/spec"
)

func runSpec(n int) spec.Spec {
	return spec.Spec{Kind: spec.KindRun, Bench: "gcc", N: n, Cores: []string{"gcc"}}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
}

func TestJobLifecycle(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 2)
	j, err := r.Submit(runSpec(20000))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	snap := j.Snapshot()
	if snap.State != StateDone {
		t.Fatalf("state %s, want done", snap.State)
	}
	if snap.Done != snap.Total || snap.Total != 20000 {
		t.Errorf("progress %d/%d, want 20000/20000", snap.Done, snap.Total)
	}
	if snap.StartedAt == nil || snap.FinishedAt == nil {
		t.Error("timestamps missing on a terminal snapshot")
	}
	out, err := j.Outcome()
	if err != nil || out == nil || out.Run == nil {
		t.Fatalf("outcome %+v, %v", out, err)
	}
	if out.Run.Insts != 20000 {
		t.Errorf("run result %+v", out.Run)
	}
}

// TestJobSnapshotsMonotonic watches a running job and asserts the
// (Seq, Done, State) stream never goes backwards — the contract the serve
// daemon's watch endpoint streams to clients.
func TestJobSnapshotsMonotonic(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 1)
	j, err := r.Submit(runSpec(300000))
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq, lastDone int64 = -1, -1
	lastState := State(-1)
	updates := 0
	for {
		snap := j.Snapshot()
		if snap.Seq < lastSeq {
			t.Fatalf("Seq went backwards: %d after %d", snap.Seq, lastSeq)
		}
		if snap.Done < lastDone {
			t.Fatalf("Done went backwards: %d after %d", snap.Done, lastDone)
		}
		if snap.State < lastState {
			t.Fatalf("State went backwards: %s after %s", snap.State, lastState)
		}
		if snap.Seq > lastSeq {
			updates++
		}
		lastSeq, lastDone, lastState = snap.Seq, snap.Done, snap.State
		if snap.State.Terminal() {
			break
		}
	}
	if lastState != StateDone {
		t.Fatalf("terminal state %s, want done", lastState)
	}
	if updates < 3 {
		t.Errorf("only %d distinct snapshots observed; progress not streaming", updates)
	}
}

func TestJobCancelQueued(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 1)
	first, err := r.Submit(runSpec(2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := r.Submit(runSpec(2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	waitDone(t, queued)
	if s := queued.Snapshot().State; s != StateCancelled {
		t.Errorf("queued-cancelled job state %s", s)
	}
	first.Cancel()
	waitDone(t, first)
	if s := first.Snapshot().State; s != StateCancelled {
		t.Errorf("running-cancelled job state %s", s)
	}
}

func TestRunnerCancelAndGet(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 1)
	j, err := r.Submit(runSpec(2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get(j.ID()); !ok || got != j {
		t.Fatal("Get lost the job")
	}
	if r.Cancel("job-nope") {
		t.Error("cancelled a job that does not exist")
	}
	if !r.Cancel(j.ID()) {
		t.Error("Cancel did not find the job")
	}
	waitDone(t, j)
	if _, err := j.Outcome(); err == nil {
		t.Error("cancelled job reported a nil error outcome")
	}
}

func TestRunnerDrain(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 4)
	for i := 0; i < 3; i++ {
		if _, err := r.Submit(runSpec(20000)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range r.Jobs() {
		if s := j.Snapshot().State; s != StateDone {
			t.Errorf("job %s state %s after drain", j.ID(), s)
		}
	}
	if _, err := r.Submit(runSpec(20000)); err == nil {
		t.Error("submission accepted while draining")
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 1)
	if _, err := r.Submit(spec.Spec{Kind: "dance"}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestRunnerQueueBound: with one worker and a queue bound of 1, the third
// submission is shed with ErrBusy, and capacity frees again once the
// queued job leaves the queue.
func TestRunnerQueueBound(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 1)
	r.SetMaxQueue(1)
	blocker, err := r.Submit(runSpec(5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the blocker to take the worker slot so the next submit is
	// pending, not running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if pending, running := r.Load(); pending == 0 && running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := r.Submit(runSpec(5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(runSpec(20000)); err != ErrBusy {
		t.Fatalf("overfull queue: err %v, want ErrBusy", err)
	}
	if pending, running := r.Load(); pending != 1 || running != 1 {
		t.Errorf("Load = (%d, %d), want (1, 1)", pending, running)
	}
	queued.Cancel()
	waitDone(t, queued)
	if _, err := r.Submit(runSpec(20000)); err != nil {
		t.Fatalf("submit after queue freed: %v", err)
	}
	blocker.Cancel()
	waitDone(t, blocker)
}

// TestJobSubscribe: a subscription is notified on progress and on the
// terminal transition, and release drops the watcher count.
func TestJobSubscribe(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 1)
	j, err := r.Submit(runSpec(100_000))
	if err != nil {
		t.Fatal(err)
	}
	ch, release := j.Subscribe()
	if j.Watchers() != 1 {
		t.Fatalf("watchers %d, want 1", j.Watchers())
	}
	notified := 0
	deadline := time.After(30 * time.Second)
	for !State(j.Snapshot().State).Terminal() {
		select {
		case <-ch:
			notified++
		case <-deadline:
			t.Fatal("no terminal notification")
		}
	}
	if notified == 0 {
		t.Error("no notifications before terminal state")
	}
	release()
	release() // idempotent
	if j.Watchers() != 0 {
		t.Fatalf("watchers %d after release, want 0", j.Watchers())
	}
	waitDone(t, j)
}

// TestJobProgressUnits: a job counts progress in its spec's unit from
// submission to the end: a run's total is n and an explore's its step
// count, each reached by Done at the end, while an experiment, whose
// progress is its campaign counters, keeps Done and Total at 0.
func TestJobProgressUnits(t *testing.T) {
	r := NewRunner(spec.NewEnv(nil), 1)
	for _, c := range []struct {
		sp    spec.Spec
		total int64
	}{
		{runSpec(20000), 20000},
		{spec.Spec{Kind: spec.KindExplore, Bench: "gcc", N: 4000, Explore: &spec.ExploreSpec{Seed: 1, Steps: 6}}, 6},
		{spec.Spec{Kind: spec.KindExperiment, Experiment: "appendixA", N: 2000}, 0},
	} {
		j, err := r.Submit(c.sp)
		if err != nil {
			t.Fatal(err)
		}
		ch, release := j.Subscribe()
		deadline := time.After(30 * time.Second)
		snaps := []Snapshot{j.Snapshot()}
		for !snaps[len(snaps)-1].State.Terminal() {
			select {
			case <-ch:
			case <-deadline:
				t.Fatalf("%s job did not finish", c.sp.Kind)
			}
			snaps = append(snaps, j.Snapshot())
		}
		release()
		for _, s := range snaps {
			if s.Total != c.total {
				t.Errorf("%s job: %s snapshot total %d, want %d", c.sp.Kind, s.State, s.Total, c.total)
				break
			}
		}
		if last := snaps[len(snaps)-1]; last.State != StateDone || last.Done != c.total {
			t.Errorf("%s job ended %s at %d of %d, want done at %d", c.sp.Kind, last.State, last.Done, last.Total, c.total)
		}
	}
}
