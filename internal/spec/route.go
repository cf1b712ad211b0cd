package spec

import (
	"archcontest/internal/resultcache"
	"archcontest/internal/sim"
)

// RouteKey derives the content-address identity of the artifacts this spec
// will compute or reuse — the routing input for a cache-aware cluster
// coordinator: two specs with the same RouteKey touch the same cached leaf
// results, so sending them to the same node maximizes that node's
// result-cache hit rate.
//
// The key hashes exactly what the leaf cache keys hash, minus the trace
// fingerprint (the trace is itself a deterministic function of bench and
// N, which are included): engine version, kind, benchmark, trace length,
// the resolved core configurations, and the execution options that change
// results. Observation-only fields (Verify, Record, SampleNs, Parallelism)
// are deliberately excluded: they change how a scenario is watched, not
// which artifacts it produces, so a recorded re-run of a cached scenario
// still routes to the node that holds its artifacts.
//
// RouteKey hashes a normalized copy of the spec, whose leaf options are
// resolved, so specs that state the same leaves differently route alike.
// The top-level latency is hashed only where a leaf reads it through a Lab
// (a contest's is resolved into its options, and no other leaf has one),
// and a -0 there, which the wire form drops, hashes as 0. An invalid spec
// still yields a deterministic key (resolution errors fold in as an empty
// core list), so routing never fails before validation does.
func (sp Spec) RouteKey() string {
	sp.Normalize()
	cfgs, _ := sp.ResolveCores()
	var lat float64
	if sp.LatencyNs != 0 && (sp.Kind == KindExperiment || sp.Kind == KindMatrix) {
		lat = sp.LatencyNs
	}
	return resultcache.Key("route",
		sim.EngineVersion, sp.Kind, sp.Bench, sp.N, cfgs,
		lat, sp.Run, sp.Contest, sp.Experiment, sp.Pairs, sp.Explore)
}
