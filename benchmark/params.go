package main

// params sizes the workloads. defaultParams is what the benchmark runs;
// the smoke test shrinks it so every workload finishes in about a second.
type params struct {
	// engineN is the trace length of the engine and components jobs.
	engineN int
	// verifyN is the prefix length each engine and components job is
	// verified on, untimed, after the measurement.
	verifyN int

	// campaignN is the campaign trace length; the seed adds
	// campaignNStep·(seed mod 16), so each seed has its own traces and
	// cache keys while the work changes by under 1%.
	campaignN, campaignNStep int
	// exploreN and exploreSteps size the campaign's explore anneal.
	exploreN, exploreSteps int

	// serveRate is the open-loop arrival rate in jobs per second, about a
	// tenth of the fleet's capacity on the baseline host (serve.go).
	serveRate float64
	// serveNMin and serveNMax bound the trace length of run and contest
	// jobs; serveVerifyN is the length of verified runs.
	serveNMin, serveNMax, serveVerifyN int

	// probeN is the length of the trace the per-layer probes replay.
	probeN int
	// probeRepeats is how many times each probe is timed (median kept).
	probeRepeats int

	// kernelLen is the length of the slice the calibration kernel sorts:
	// 1M ints, 8 MiB, about 0.1 s on the baseline host.
	kernelLen int
}

var defaultParams = params{
	engineN:       1_000_000,
	verifyN:       20_000,
	campaignN:     20_000,
	campaignNStep: 10,
	exploreN:      50_000,
	exploreSteps:  120,
	serveRate:     4,
	serveNMin:     50_000,
	serveNMax:     150_000,
	serveVerifyN:  20_000,
	probeN:        200_000,
	probeRepeats:  5,
	kernelLen:     1 << 20,
}
