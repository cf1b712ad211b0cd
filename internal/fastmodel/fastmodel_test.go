package fastmodel

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"archcontest/internal/config"
	"archcontest/internal/workload"
)

func TestEstimateDeterministicAndMemoized(t *testing.T) {
	tr := workload.MustGenerate("gcc", 8000)
	cfg, err := config.PaletteCore("gcc")
	if err != nil {
		t.Fatal(err)
	}
	m := New(tr)
	a, err := m.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("repeat estimate differs: %+v vs %+v", a, b)
	}
	c, err := New(tr).Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Errorf("fresh-model estimate differs: %+v vs %+v", a, c)
	}
	if a.Cycles <= 0 || a.IPT <= 0 {
		t.Errorf("degenerate estimate: %+v", a)
	}
	if a.Mispredicts <= 0 || a.L1Misses <= 0 {
		t.Errorf("replays saw no events: %+v", a)
	}
	if a.L2Misses > a.L1Misses {
		t.Errorf("more L2 than L1 misses: %+v", a)
	}
}

func TestEstimateConcurrentUse(t *testing.T) {
	tr := workload.MustGenerate("mcf", 6000)
	m := New(tr)
	names := config.PaletteNames()
	ests := make([]Estimate, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			cfg, err := config.PaletteCore(name)
			if err != nil {
				t.Error(err)
				return
			}
			est, err := m.Estimate(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			ests[i] = est
		}(i, name)
	}
	wg.Wait()
	for i, name := range names {
		cfg, err := config.PaletteCore(name)
		if err != nil {
			t.Fatal(err)
		}
		again, err := m.Estimate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ests[i] != again {
			t.Errorf("%s: concurrent estimate %+v != sequential %+v", name, ests[i], again)
		}
	}
}

// TestCalibrationGolden pins the fast model's divergence from the detailed
// engine over the full workload suite and palette. The bounds carry
// headroom over the measured values (mean 0.47, max 1.27, rank 0.77 at
// 10k instructions); a regression past them means the model drifted from
// its calibrated envelope and the explore filter margin no longer covers
// its misranking.
func TestCalibrationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep in short mode")
	}
	cal, err := Calibrate(context.Background(), nil, nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(workload.Benchmarks()) * len(config.PaletteNames())
	if len(cal.Rows) != wantRows {
		t.Fatalf("calibration covered %d rows, want %d", len(cal.Rows), wantRows)
	}
	for _, r := range cal.Rows {
		if r.FastIPT <= 0 || r.DetailedIPT <= 0 {
			t.Fatalf("degenerate calibration row: %+v", r)
		}
	}
	t.Logf("calibration over %d rows: mean |rel err| %.3f, max |rel err| %.3f, rank agreement %.3f",
		len(cal.Rows), cal.MeanAbsRelError, cal.MaxAbsRelError, cal.RankAgreement)
	if cal.MeanAbsRelError >= 0.7 {
		t.Errorf("mean |rel error| %.3f exceeds calibrated envelope 0.7", cal.MeanAbsRelError)
	}
	if cal.MaxAbsRelError >= 1.8 {
		t.Errorf("max |rel error| %.3f exceeds calibrated envelope 1.8", cal.MaxAbsRelError)
	}
	if cal.RankAgreement <= 0.70 {
		t.Errorf("rank agreement %.3f below calibrated floor 0.70", cal.RankAgreement)
	}
	if len(cal.Spreads) != len(workload.Benchmarks()) {
		t.Errorf("%d bench spreads, want %d", len(cal.Spreads), len(workload.Benchmarks()))
	}
	again, err := Calibrate(context.Background(), nil, nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cal, again) {
		t.Error("calibration not deterministic across runs")
	}
}
