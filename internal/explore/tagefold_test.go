package explore

import (
	"testing"

	"archcontest/internal/branch"
	"archcontest/internal/isa"
	"archcontest/internal/workload"
)

// TestPredMenuTAGEFolds locks TAGE's incremental folded histories on every
// TAGE geometry the explore menu can select: after every update of a
// generated branch stream, and across a reset, each table's index and tag
// registers equal a from-scratch fold of the global history.
func TestPredMenuTAGEFolds(t *testing.T) {
	tr := workload.MustGenerate("twolf", 20_000)
	geometries := 0
	for _, cfg := range predMenu {
		if cfg.Kind != "tage" {
			continue
		}
		geometries++
		p, err := cfg.New()
		if err != nil {
			t.Fatal(err)
		}
		tg := p.(*branch.TAGE)
		updates := 0
		for i := int64(0); i < int64(tr.Len()); i++ {
			in := tr.At(i)
			if in.Op != isa.OpBranch {
				continue
			}
			tg.Predict(in.PC)
			tg.Update(in.PC, in.Taken)
			updates++
			if err := tg.CheckFolds(); err != nil {
				t.Fatalf("%+v after %d updates: %v", cfg, updates, err)
			}
			if updates == 1000 {
				tg.Reset()
				if err := tg.CheckFolds(); err != nil {
					t.Fatalf("%+v after reset: %v", cfg, err)
				}
			}
		}
		if updates < 2000 {
			t.Fatalf("%+v: only %d branches in the stream", cfg, updates)
		}
	}
	if geometries < 3 {
		t.Fatalf("predMenu holds %d TAGE geometries, want at least 3", geometries)
	}
}
