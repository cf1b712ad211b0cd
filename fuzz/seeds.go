package fuzz

// The seed corpus, by construction rather than by capture: each seed decodes
// into one of the regimes the verification subsystem most needs to see —
// engine defaults, exception rendezvous (both handler styles), a saturated
// lagger, store-queue backpressure, a 3-way contest, predictor diversity
// (TAGE vs bimodal), cold-state kill-refork warm-up, and cache-component
// diversity (SRRIP/random replacement with both prefetchers). Every target
// f.Adds them, so `go test` exercises each regime even without -fuzz, as
// the target's seed#N subtests.

func pad(b []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, b)
	return out
}

// buildSeed assembles one fuzz input in decodeContest's layout. A prefix of
// the same bytes drives decodePipeline, so the one corpus seeds every
// target.
func buildSeed(bench byte, n uint16, mut []byte, cores [][]byte, opts []byte) []byte {
	b := []byte{bench, byte(n), byte(n >> 8)}
	b = append(b, pad(mut, 22)...)
	b = append(b, byte(len(cores)-2)) // decodeContest: 2 + byte%2 cores
	for _, c := range cores {
		b = append(b, pad(c, configBytes)...)
	}
	return append(b, pad(opts, optionBytes)...)
}

// Core mutation bytes: [base, width, rob, iq, lsq, wake, sched, fe, mem,
// clock, predKind, predGeomA, predGeomB, replByte, prefByte] — predKind 0
// keeps the palette gshare, 1/2/3 decode bimodal/gshare/TAGE geometries;
// replByte picks L1 (bits 0-1) and L2 (bits 2-3) replacement ladder rungs,
// prefByte picks the prefetcher ladder rung; zero keeps the fused-LRU,
// no-prefetch defaults.
var (
	fastCore = []byte{0, 3, 3, 0, 3, 0, 1, 0, 30, 0}  // 4-wide, ROB 128, 0.25ns
	midCore  = []byte{4, 1, 2, 1, 2, 1, 0, 4, 80, 2}  // 2-wide, ROB 64, 0.5ns
	slowCore = []byte{1, 0, 1, 1, 1, 2, 3, 8, 250, 4} // scalar, ROB 32, 1ns, slow memory
	// Predictor-diverse cores: fastCore's structure with a decoded TAGE,
	// midCore's with a decoded bimodal — both non-default predictors in one
	// contest.
	tageCore    = []byte{0, 3, 3, 0, 3, 0, 1, 0, 30, 0, 3, 2, 1}
	bimodalCore = []byte{4, 1, 2, 1, 2, 1, 0, 4, 80, 2, 1, 4, 0}
	// Component-diverse cores: fastCore with random L1 / SRRIP L2 and a
	// stride prefetcher, midCore's bimodal variant with SRRIP L1 and a
	// next-line prefetcher — the generic replacer paths and both prefetch
	// kinds in one contest.
	componentCoreA = []byte{0, 3, 3, 0, 3, 0, 1, 0, 30, 0, 0, 0, 0, 5, 2}
	componentCoreB = []byte{4, 1, 2, 1, 2, 1, 0, 4, 80, 2, 1, 4, 0, 1, 1}
)

// Option bytes: [latencyIdx, maxLagIdx, sqCapIdx, excIdx, flags, warmByte];
// warmByte packs the warm-up ladder index (bits 0-1), cold-predictor (bit
// 2), cold-caches (bit 3), and the lead-change ladder index (bits 4+).

// SeedCorpus returns the seed inputs, in a fixed order. Index 0
// is the engine-defaults seed.
func SeedCorpus() [][]byte {
	storeHeavy := make([]byte, 22)
	storeHeavy[15] = 255 // MutateForFuzz byte 15: StoreFrac -> ~0.8
	return [][]byte{
		// Engine defaults, two moderately different cores.
		buildSeed(0, 1024, nil, [][]byte{fastCore, midCore}, nil),
		// Exception rendezvous every 512 instructions.
		buildSeed(3, 1800, nil, [][]byte{fastCore, midCore}, []byte{0, 0, 0, 2, 0}),
		// Exception rendezvous under the kill-and-refork handler model.
		buildSeed(3, 1800, nil, [][]byte{fastCore, midCore}, []byte{0, 0, 0, 3, 1}),
		// Saturated lagger: tiny lag bound, structurally mismatched cores.
		buildSeed(5, 1500, nil, [][]byte{fastCore, slowCore}, []byte{0, 1, 0, 0, 0}),
		// Store-queue backpressure: store-heavy workload, 4-entry queue.
		buildSeed(7, 1500, storeHeavy, [][]byte{fastCore, midCore}, []byte{0, 0, 1, 0, 0}),
		// 3-way contest at high latency with training on inject disabled.
		buildSeed(9, 1200, nil, [][]byte{fastCore, midCore, slowCore}, []byte{3, 3, 4, 0, 2}),
		// Predictor diversity: TAGE vs bimodal under exception rendezvous.
		buildSeed(2, 1500, nil, [][]byte{tageCore, bimodalCore}, []byte{0, 0, 0, 2, 0}),
		// Kill-refork with the full state-transfer model: 1000ns warm-up,
		// cold predictor and caches, 50ns lead-change charge (0x1e).
		buildSeed(3, 1800, nil, [][]byte{tageCore, midCore}, []byte{0, 0, 0, 3, 1, 0x1e}),
		// Component diversity: non-default replacement policies and both
		// prefetchers, contested under exception rendezvous.
		buildSeed(4, 1600, nil, [][]byte{componentCoreA, componentCoreB}, []byte{0, 0, 0, 2, 0}),
		// Empty input: everything decodes to its ladder's first rung.
		{},
	}
}
