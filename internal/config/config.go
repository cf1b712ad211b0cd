// Package config defines the microarchitectural configuration of one core
// and reproduces the paper's Appendix A palette: the eleven configurations
// customized for the SPEC2000 integer benchmarks by the XpScalar
// simulated-annealing exploration in 70nm technology.
package config

import (
	"fmt"

	"archcontest/internal/branch"
	"archcontest/internal/cache"
	"archcontest/internal/ticks"
)

// CoreConfig describes one core along the paper's Appendix A axes.
type CoreConfig struct {
	// Name identifies the configuration; palette cores are named after the
	// benchmark they are customized for.
	Name string

	// ClockPeriodNs is the clock period in nanoseconds.
	ClockPeriodNs float64
	// FrontEndDepth is the number of front-end pipeline stages (fetch to
	// dispatch); it sets the branch-misprediction refill penalty.
	FrontEndDepth int
	// Width is the dispatch, issue, and commit width.
	Width int
	// ROBSize is the reorder-buffer (instruction window) size.
	ROBSize int
	// IQSize is the issue-queue size.
	IQSize int
	// LSQSize is the load/store queue size.
	LSQSize int
	// WakeupLatency is the minimum latency, in cycles, for awakening a
	// dependent instruction after its producer completes (0 = back-to-back).
	WakeupLatency int
	// SchedDepth is the pipeline depth of the scheduler/register file: the
	// cycles between issue and execution start.
	SchedDepth int
	// MemLatencyCycles is the main-memory access latency in core cycles.
	MemLatencyCycles int

	// L1D and L2D are the private data-cache levels.
	L1D, L2D cache.Config

	// Predictor is the branch predictor; the palette uses the same default
	// for every core (the paper's configurations do not vary it).
	Predictor branch.Config

	// Prefetch names the data prefetcher observing the core's demand loads.
	// The zero value — the palette default — attaches none, leaving the
	// load path exactly as it was before the prefetch seam existed.
	Prefetch cache.PrefetchConfig `json:",omitempty"`
}

// Validate reports whether the configuration is well formed: its own
// fields (ValidateCore), then its components. A built-in component is
// checked without building it; a registered one can only be checked by its
// factory, so Validate builds it.
func (c CoreConfig) Validate() error {
	if err := c.ValidateCore(); err != nil {
		return err
	}
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("config %s: L1D: %w", c.Name, err)
	}
	if err := c.L2D.Validate(); err != nil {
		return fmt.Errorf("config %s: L2D: %w", c.Name, err)
	}
	if err := c.Predictor.Validate(); err != nil {
		return fmt.Errorf("config %s: %w", c.Name, err)
	}
	if err := c.Prefetch.Validate(c.L1D.BlockBytes); err != nil {
		return fmt.Errorf("config %s: %w", c.Name, err)
	}
	return nil
}

// ValidateCore checks the core's own fields, not its cache levels,
// predictor or prefetcher: the checks a constructor that builds the
// components, and reports their errors, still needs.
func (c CoreConfig) ValidateCore() error {
	if c.Name == "" {
		return fmt.Errorf("config: unnamed core")
	}
	if c.ClockPeriodNs < 0.01 || c.ClockPeriodNs > 10 {
		return fmt.Errorf("config %s: clock period %gns out of range", c.Name, c.ClockPeriodNs)
	}
	if c.FrontEndDepth < 1 || c.FrontEndDepth > 30 {
		return fmt.Errorf("config %s: front-end depth %d out of range", c.Name, c.FrontEndDepth)
	}
	if c.Width < 1 || c.Width > 16 {
		return fmt.Errorf("config %s: width %d out of range", c.Name, c.Width)
	}
	if c.ROBSize < c.Width || c.ROBSize > 4096 {
		return fmt.Errorf("config %s: ROB size %d out of range", c.Name, c.ROBSize)
	}
	if c.IQSize < 1 || c.IQSize > c.ROBSize {
		return fmt.Errorf("config %s: issue queue size %d out of range", c.Name, c.IQSize)
	}
	// Appendix A allows the LSQ to exceed the ROB (e.g. gap: LSQ 256, ROB
	// 128), so the LSQ is only bounded absolutely.
	if c.LSQSize < 1 || c.LSQSize > 4096 {
		return fmt.Errorf("config %s: LSQ size %d out of range", c.Name, c.LSQSize)
	}
	if c.WakeupLatency < 0 || c.WakeupLatency > 8 {
		return fmt.Errorf("config %s: wakeup latency %d out of range", c.Name, c.WakeupLatency)
	}
	if c.SchedDepth < 1 || c.SchedDepth > 8 {
		return fmt.Errorf("config %s: scheduler depth %d out of range", c.Name, c.SchedDepth)
	}
	if c.MemLatencyCycles < 10 || c.MemLatencyCycles > 2000 {
		return fmt.Errorf("config %s: memory latency %d out of range", c.Name, c.MemLatencyCycles)
	}
	return nil
}

// Clock returns the core's clock.
func (c CoreConfig) Clock() ticks.Clock { return ticks.NewClock(c.ClockPeriodNs) }

// FrequencyGHz reports the clock frequency.
func (c CoreConfig) FrequencyGHz() float64 { return 1 / c.ClockPeriodNs }

// MemLatencyNs reports the absolute main-memory latency.
func (c CoreConfig) MemLatencyNs() float64 {
	return float64(c.MemLatencyCycles) * c.ClockPeriodNs
}

// WithL2 returns a copy of the configuration with the L2 cache
// (configuration and access latency) replaced by other's, keeping everything
// else — the transformation used by the paper's Figure 7 experiment to
// isolate L2 heterogeneity.
func (c CoreConfig) WithL2(other CoreConfig) CoreConfig {
	out := c
	out.L2D = other.L2D
	out.Name = c.Name + "+L2(" + other.Name + ")"
	return out
}

func (c CoreConfig) String() string {
	return fmt.Sprintf("%s: %d-wide %.2fGHz ROB=%d IQ=%d LSQ=%d FE=%d sched=%d wake=%d L1D[%v] L2D[%v] mem=%dcyc",
		c.Name, c.Width, c.FrequencyGHz(), c.ROBSize, c.IQSize, c.LSQSize,
		c.FrontEndDepth, c.SchedDepth, c.WakeupLatency, c.L1D, c.L2D, c.MemLatencyCycles)
}
