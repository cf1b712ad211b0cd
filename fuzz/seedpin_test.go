package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"archcontest/internal/contest"
	"archcontest/internal/sim"
)

// seedPinVersion and seedPinSHA256 pin the seed corpus's results under the
// engine semantics sim.EngineVersion names: the SHA-256 over the JSON
// encoding of every seed's single-core result (decodePipeline) and
// contested result (decodeContest), in corpus order. Bump
// sim.EngineVersion whenever an engine change moves a result bit, then
// re-pin both constants.
const (
	seedPinVersion = "engine-v2"
	seedPinSHA256  = "7895f013fa2478782f346cb1e1cfc18d2b25ac8a212804427a4e21e947f653d7"
)

// TestSeedCorpusPin hashes every seed's single-core and contested result
// and compares the digest with the one pinned for the current
// sim.EngineVersion. The seeds run decoded core geometries that the
// palette-based golden grid does not, so the two pins together hold the
// scheduler's issue order and wake-up timing.
func TestSeedCorpusPin(t *testing.T) {
	h := sha256.New()
	for i, data := range SeedCorpus() {
		tr, cfg := decodePipeline(data)
		run, err := sim.Run(cfg, tr, sim.RunOptions{MaxCycles: 50_000_000})
		if err != nil {
			t.Fatalf("seed %d (pipeline): %v", i, err)
		}
		trC, cfgs, opts := decodeContest(data)
		con, err := contest.Run(cfgs, trC, opts)
		if err != nil {
			t.Fatalf("seed %d (contest): %v", i, err)
		}
		for _, res := range []any{run, con} {
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
			h.Write(b)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if sim.EngineVersion != seedPinVersion {
		t.Fatalf("the pin is for %s, the engine is %s: re-pin seedPinSHA256 to %s", seedPinVersion, sim.EngineVersion, got)
	}
	if got != seedPinSHA256 {
		t.Fatalf("engine semantics changed: bump sim.EngineVersion and re-pin (results SHA-256 %s, pinned %s)", got, seedPinSHA256)
	}
}
