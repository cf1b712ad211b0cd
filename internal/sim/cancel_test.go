package sim

import (
	"context"
	"errors"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/pipeline"
	"archcontest/internal/ticks"
	"archcontest/internal/workload"
)

func TestRunContextPreCancelled(t *testing.T) {
	tr := workload.MustGenerate("gcc", 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, config.MustPaletteCore("gcc"), tr, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancelAfter cancels its context on the Nth retirement.
type cancelAfter struct {
	cancel  context.CancelFunc
	after   int64
	retired int64
}

func (c *cancelAfter) AfterCycle(*pipeline.Core) {}
func (c *cancelAfter) OnRetire(_ *pipeline.Core, _ int64, _ ticks.Time) {
	if c.retired++; c.retired == c.after {
		c.cancel()
	}
}
func (c *cancelAfter) OnInject(*pipeline.Core, int64, ticks.Time) {}

func TestRunContextCancelMidRun(t *testing.T) {
	tr := workload.MustGenerate("gcc", 200000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunContext(ctx, config.MustPaletteCore("gcc"), tr,
		RunOptions{Checker: &cancelAfter{cancel: cancel, after: 1000}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	tr := workload.MustGenerate("twolf", 20000)
	cfg := config.MustPaletteCore("twolf")
	a, err := Run(cfg, tr, RunOptions{LogRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, tr, RunOptions{LogRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Insts != b.Insts || a.Time != b.Time || len(a.Regions) != len(b.Regions) {
		t.Fatalf("RunContext(Background) diverged from Run: %+v vs %+v", a, b)
	}
}

// TestPoller: a poller over a context that cannot end never stops; over a
// cancelled one it stops on the next stride boundary and not before.
func TestPoller(t *testing.T) {
	p := NewPoller(context.Background())
	for i := 1; i <= 3*pollStride; i++ {
		if p.Stopped() {
			t.Fatalf("Background poller stopped at call %d", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	p = NewPoller(ctx)
	for i := 1; i <= pollStride+pollStride/2; i++ {
		if p.Stopped() {
			t.Fatalf("live poller stopped at call %d", i)
		}
	}
	cancel()
	for i := pollStride + pollStride/2 + 1; i < 2*pollStride; i++ {
		if p.Stopped() {
			t.Fatalf("cancelled poller stopped at call %d, before the stride boundary %d", i, 2*pollStride)
		}
	}
	if !p.Stopped() {
		t.Fatalf("cancelled poller did not stop at the stride boundary %d", 2*pollStride)
	}
}
