package main

import (
	"math"
	"sort"
	"time"
)

// Host calibration. The benchmark host is a shared VM whose speed drifts:
// the same binary has taken 2.1 s in one process and 3.8 s in the next,
// with CPU time tracking wall time and no CPU steal, and within a process
// the host flips for seconds at a time into a state where the simulator
// runs up to 1.7 times slower. A fixed kernel, sorting a fixed slice of 1M
// ints (about 0.1 s), is timed before the first set-up repeat and after
// every set-up repeat, measured round, campaign phase and serve pass (a
// mark). Over 10-second windows its median time followed the simulator's
// with correlation 0.98, but the simulator slowed more than the sort. So
// every sample is converted to calibrated seconds with the two kernel
// samples around it:
//
//	calibrated = wall × (refKernelSeconds / kernel)^calibrationAlpha
//
// where kernel is the mean of those two samples. A calibrated second is
// the time the work would have taken on a host where the kernel takes
// refKernelSeconds. Raw wall seconds are printed beside the result for
// information and are never gated.

// refKernelSeconds is C_ref, the kernel time on the host the baseline was
// recorded on. Changing it, calibrationAlpha, params.kernelLen or the
// kernel re-baselines every time-valued metric.
const refKernelSeconds = 0.100

// calibrationAlpha is the elasticity of the workloads' time to the
// kernel's, measured on the baseline host as the exponent that minimised
// the spread of the operation time over ten seeds: 1.3 to 1.5 for engine,
// 1.0 to 1.3 for components, campaign and serve.
const calibrationAlpha = 1.3

// calibrator owns the kernel's buffer and the samples taken in one run.
type calibrator struct {
	buf     []int
	samples []float64
}

func newCalibrator(kernelLen int) *calibrator {
	return &calibrator{buf: make([]int, kernelLen)}
}

// sample times one run of the kernel, sorting a fixed pseudo-random slice,
// records it and returns it. Filling the slice is not timed.
func (c *calibrator) sample() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[i] = int(x >> 1)
	}
	start := time.Now()
	sort.Ints(c.buf)
	sec := time.Since(start).Seconds()
	c.samples = append(c.samples, sec)
	return sec
}

// calibrationFactor converts wall seconds into calibrated seconds for
// work measured while the kernel took kernel seconds:
// (refKernelSeconds / kernel)^calibrationAlpha.
func calibrationFactor(kernel float64) float64 {
	return math.Pow(refKernelSeconds/kernel, calibrationAlpha)
}
