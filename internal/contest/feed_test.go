package contest

import (
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
	"archcontest/internal/workload"
)

// Unit tests for the global result bus: one arrival-time log per sending
// core (a ring, hence the TestSenderRing names) read through one pop
// counter per receiving core. The event-driven scheduler fast-forwards on
// NextArrival and wakes idle cores from broadcast, so these semantics are
// load-bearing for correctness, not just performance.

const busLatency = 10

// testBus builds the result bus of an n-core system with the given FIFO
// capacity and a 10-tick propagation latency, without cores: enough for
// broadcast, saturation and the feeds.
func testBus(n, maxLag int) *System {
	s := &System{latency: busLatency, opts: Options{MaxLag: maxLag}, queue: NewStoreQueue(n, 4)}
	s.logs, s.feeds = newBus(n, maxLag)
	return s
}

func TestSenderRing(t *testing.T) {
	s := testBus(2, 4)
	f := &s.feeds[1]
	for i := int64(0); i < 4; i++ {
		s.broadcast(0, i, ticks.Time(100+10*i))
	}
	if !f.ResultAvailable(0, 110) {
		t.Error("arrived result unavailable")
	}
	if f.ResultAvailable(0, 109) {
		t.Error("result available before its arrival")
	}
	if f.ResultAvailable(4, 1000) {
		t.Error("unbroadcast result available")
	}
	if s.feeds[0].ResultAvailable(0, 1000) {
		t.Error("a core sees its own broadcast")
	}
	// Results below the pop counter are invisible, arrived or not.
	f.ConsumeThrough(1)
	if f.ResultAvailable(1, 1000) || f.ResultAvailable(0, 1000) {
		t.Error("consumed result still available")
	}
	if !f.ResultAvailable(2, 1000) {
		t.Error("unconsumed result lost by the consume")
	}
	// Consuming never moves the pop counter back.
	f.ConsumeThrough(0)
	if f.ResultAvailable(1, 1000) {
		t.Error("a stale consume reopened a consumed result")
	}
	// With the pop counter at 2 the FIFO has room again; the log wraps
	// without disturbing the retained results.
	s.broadcast(0, 4, 150)
	s.broadcast(0, 5, 160)
	if s.IsSaturated(1) {
		t.Fatal("receiver saturated below capacity")
	}
	for idx, at := range map[int64]ticks.Time{2: 130, 3: 140, 4: 160, 5: 170} {
		if got, ok := f.NextArrival(idx); !ok || got != at {
			t.Errorf("NextArrival(%d) = %d, %v after the wrap; want %d, true", idx, got, ok, at)
		}
	}
}

func TestSenderRingOutOfOrderPanics(t *testing.T) {
	s := testBus(2, 4)
	s.broadcast(0, 0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.broadcast(0, 2, 110)
}

func TestSenderRingNextArrival(t *testing.T) {
	s := testBus(2, 4)
	f := &s.feeds[1]
	s.broadcast(0, 0, 90)
	s.broadcast(0, 1, 100)
	if at, ok := f.NextArrival(0); !ok || at != 100 {
		t.Errorf("NextArrival(0) = %d, %v; want 100, true", at, ok)
	}
	// A result still in flight (arrival in the future) is already known.
	if at, ok := f.NextArrival(1); !ok || at != 110 {
		t.Errorf("NextArrival(1) = %d, %v; want 110, true", at, ok)
	}
	if _, ok := f.NextArrival(2); ok {
		t.Error("NextArrival reported an unbroadcast result")
	}
	f.ConsumeThrough(0)
	if _, ok := f.NextArrival(0); ok {
		t.Error("NextArrival reported a consumed result")
	}
}

func TestFeedMinimumArrivalAcrossSenders(t *testing.T) {
	s := testBus(3, 4)
	f := &s.feeds[1]
	s.broadcast(0, 0, 190)
	s.broadcast(2, 0, 140)
	if f.ResultAvailable(0, 149) {
		t.Error("result available before the earliest arrival")
	}
	if !f.ResultAvailable(0, 150) {
		t.Error("result unavailable at the earliest arrival")
	}
	if at, ok := f.NextArrival(0); !ok || at != 150 {
		t.Errorf("NextArrival = %d, %v; want the minimum 150, true", at, ok)
	}
	// Only one sender has broadcast the next result; the hint still fires.
	s.broadcast(2, 1, 250)
	if at, ok := f.NextArrival(1); !ok || at != 260 {
		t.Errorf("NextArrival(1) = %d, %v; want 260, true", at, ok)
	}
	if f.ResultAvailable(1, 259) || !f.ResultAvailable(1, 260) {
		t.Error("single-sender result visible at the wrong time")
	}
}

func TestDisabledFeedReportsNothing(t *testing.T) {
	s := testBus(2, 4)
	s.broadcast(0, 0, 100)
	s.declareSaturated(1)
	f := &s.feeds[1]
	if f.ResultAvailable(0, 1000) {
		t.Error("disabled feed reported an available result")
	}
	if _, ok := f.NextArrival(0); ok {
		t.Error("disabled feed reported an arrival hint")
	}
}

func TestSenderRingSaturationBoundary(t *testing.T) {
	// Saturation is exact at MaxLag, including capacities the log rounds
	// up to a power of two, and it hits only the lagging receiver: core 1
	// keeps consuming, core 2 never does.
	for _, maxLag := range []int{3, 4, 100} {
		s := testBus(3, maxLag)
		lag := int64(maxLag)
		for i := int64(0); i < lag; i++ {
			s.broadcast(0, i, ticks.Time(100+i))
			s.feeds[1].ConsumeThrough(i)
		}
		if s.IsSaturated(1) || s.IsSaturated(2) {
			t.Fatalf("MaxLag %d: saturated at a lag of exactly MaxLag-1", maxLag)
		}
		// Core 2 now lags by exactly MaxLag: the next broadcast overflows
		// its FIFO.
		s.broadcast(0, lag, 500)
		if !s.IsSaturated(2) {
			t.Errorf("MaxLag %d: receiver at a lag of MaxLag not saturated", maxLag)
		}
		if s.IsSaturated(1) || s.IsSaturated(0) {
			t.Errorf("MaxLag %d: a keeping-up core saturated", maxLag)
		}
		// Core 0 has never consumed either: a second sender's log overflows
		// its FIFO the same way, at that sender's own MaxLag-th result.
		for i := int64(0); i < lag; i++ {
			s.broadcast(2, i, ticks.Time(100+i))
		}
		if s.IsSaturated(0) || s.IsSaturated(1) {
			t.Fatalf("MaxLag %d: a second sender saturated a receiver below MaxLag", maxLag)
		}
		s.broadcast(2, lag, 500)
		if !s.IsSaturated(0) {
			t.Errorf("MaxLag %d: receiver at a lag of MaxLag behind the second sender not saturated", maxLag)
		}
		if s.IsSaturated(1) {
			t.Errorf("MaxLag %d: core 1 saturated on results it had consumed past", maxLag)
		}
	}
}

// TestBroadcastWakesOnlyPendingBranch: an idle receiver's wake-up is pulled
// in only by the broadcast of its pending mispredicted branch — the one
// result that can let its fetch move early — and then exactly to its first
// clock edge at or after the arrival.
func TestBroadcastWakesOnlyPendingBranch(t *testing.T) {
	tr := workload.MustGenerate("gcc", 2000)
	s, err := NewSystem([]config.CoreConfig{fastCore("a"), slowBigCore("b")}, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Core(1)
	for c.Inspect().PendingBranch() == pipeline.NoSeq {
		c.Step()
	}
	pb := c.Inspect().PendingBranch()
	s.wake, s.live = make([]int64, 2), make([]ticks.Time, 2)
	s.reschedule(1)
	idle := c.Cycle() + 1_000_000
	s.wake[1], s.live[1] = idle, c.Clock().TimeOfCycle(idle)
	at := c.Now()
	for i := int64(0); i < pb; i++ {
		s.broadcast(0, i, at)
		if s.wake[1] != idle {
			t.Fatalf("broadcast of non-pending result %d (pending %d) woke the idle receiver to cycle %d", i, pb, s.wake[1])
		}
	}
	at += 7 // off the receiver's clock edges
	s.broadcast(0, pb, at)
	arrival := at.Add(s.latency)
	clk := c.Clock()
	want := clk.CycleAt(arrival)
	if clk.TimeOfCycle(want) < arrival {
		want++
	}
	if s.wake[1] != want || s.live[1] != clk.TimeOfCycle(want) {
		t.Errorf("pending-branch broadcast arriving at %d: wake %d (edge %d), want %d (edge %d)",
			arrival, s.wake[1], s.live[1], want, clk.TimeOfCycle(want))
	}
	if s.IsSaturated(1) {
		t.Error("receiver saturated in the wake-up test")
	}
}
