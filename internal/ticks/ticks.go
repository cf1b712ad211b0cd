// Package ticks defines the simulation time base shared by all cores of a
// contesting system.
//
// The paper synchronizes simulator instances on a base time-unit of 0.01ns
// (10 picoseconds): a core with a 0.33ns clock period executes one cycle
// every 33 time-units. This package represents absolute simulation time and
// clock periods in those integer units so that multi-core co-simulation is
// exact (no floating-point drift between cores with different frequencies).
package ticks

import (
	"fmt"
	"math"
)

// PerNanosecond is the number of base time-units in one nanosecond.
// One tick is 0.01ns, matching the paper's handshake granularity.
const PerNanosecond = 100

// Time is an absolute simulation time in base units of 0.01ns.
type Time int64

// Duration is a span of simulation time in base units of 0.01ns.
type Duration int64

// FromNanoseconds converts a duration in nanoseconds to ticks, rounding to
// the nearest tick (halves away from zero). Rounding must go through
// math.Round: the truncate-after-adding-0.5 idiom is off by one tick for
// odd tick counts at or above 2^52, where the +0.5 addition itself rounds
// to even.
func FromNanoseconds(ns float64) Duration {
	if ns < 0 {
		panic(fmt.Sprintf("ticks: negative duration %gns", ns))
	}
	return Duration(math.Round(ns * PerNanosecond))
}

// Nanoseconds reports the duration in nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / PerNanosecond }

// Nanoseconds reports the absolute time in nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / PerNanosecond }

// Add advances a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Clock converts cycle counts of a fixed-period clock to and from absolute
// time. The zero Clock is invalid; use NewClock.
type Clock struct {
	period Duration
}

// NewClock returns a Clock with the given period in nanoseconds.
// It panics if the period does not round to a positive whole number of ticks.
func NewClock(periodNs float64) Clock {
	p := FromNanoseconds(periodNs)
	if p <= 0 {
		panic(fmt.Sprintf("ticks: clock period %gns is below one tick", periodNs))
	}
	return Clock{period: p}
}

// Period reports the clock period.
func (c Clock) Period() Duration { return c.period }

// PeriodNs reports the clock period in nanoseconds.
func (c Clock) PeriodNs() float64 { return c.period.Nanoseconds() }

// FrequencyGHz reports the clock frequency in GHz.
func (c Clock) FrequencyGHz() float64 { return 1 / c.period.Nanoseconds() }

// TimeOfCycle reports the absolute time of the rising edge of the given
// cycle (cycle 0 is at time 0).
func (c Clock) TimeOfCycle(cycle int64) Time { return Time(cycle * int64(c.period)) }

// CycleAt reports the index of the last clock edge at or before t.
func (c Clock) CycleAt(t Time) int64 {
	if t < 0 {
		panic("ticks: negative time")
	}
	return int64(t) / int64(c.period)
}

// NextEdge reports the time of the first clock edge strictly after t.
func (c Clock) NextEdge(t Time) Time {
	return c.TimeOfCycle(c.CycleAt(t) + 1)
}

func (c Clock) String() string {
	return fmt.Sprintf("%.2fGHz (%.2fns)", c.FrequencyGHz(), c.PeriodNs())
}
