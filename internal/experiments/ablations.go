package experiments

import (
	"context"

	"fmt"

	"archcontest/internal/contest"
)

// ablationBenches is the subset used by the design-choice ablations: one
// memory-bound, one scratch-bound, one compute-bound benchmark.
var ablationBenches = []string{"bzip", "twolf", "crafty"}

// AblationStoreQueue sweeps the synchronizing store queue capacity: an
// undersized queue backpressures the leader's store retirement and erodes
// the contesting speedup.
func AblationStoreQueue(ctx context.Context, l *Lab) (*Table, error) {
	caps := []int{8, 32, 256}
	t := &Table{
		ID:    "Ablation: store queue",
		Title: "contest IPT of each benchmark's best pair vs store queue capacity",
	}
	t.Header = []string{"benchmark"}
	opts := make([]contest.Options, len(caps))
	for i, c := range caps {
		t.Header = append(t.Header, fmt.Sprintf("cap %d", c))
		opts[i] = contest.Options{StoreQueueCap: c}
	}
	sweep, err := l.bestPairSweep(ctx, ablationBenches, opts)
	if err != nil {
		return nil, err
	}
	for b, bench := range ablationBenches {
		row := []string{bench}
		for _, r := range sweep[b] {
			row = append(row, f2(r.IPT()))
		}
		t.AddRow(row...)
	}
	t.AddNote("a tight queue bounds the leader's run-ahead on store-dense code; the default is 256")
	return t, nil
}

// AblationMaxLag sweeps the lagging-distance bound (result FIFO capacity).
// Too tight a bound misclassifies transient memory-phase excursions as
// structural saturation and disables contesting for a core that would have
// recovered.
func AblationMaxLag(ctx context.Context, l *Lab) (*Table, error) {
	lags := []int{64, 512, 4096}
	t := &Table{
		ID:    "Ablation: lagging distance",
		Title: "contest IPT and saturation vs result-FIFO capacity (MaxLag)",
	}
	t.Header = []string{"benchmark"}
	opts := make([]contest.Options, len(lags))
	for i, lag := range lags {
		t.Header = append(t.Header, fmt.Sprintf("lag %d", lag), "saturated")
		opts[i] = contest.Options{MaxLag: lag}
	}
	sweep, err := l.bestPairSweep(ctx, ablationBenches, opts)
	if err != nil {
		return nil, err
	}
	for b, bench := range ablationBenches {
		row := []string{bench}
		for _, r := range sweep[b] {
			sat := "-"
			for i, s := range r.Saturated {
				if s {
					if sat == "-" {
						sat = ""
					}
					sat += r.Cores[i] + " "
				}
			}
			row = append(row, f2(r.IPT()), sat)
		}
		t.AddRow(row...)
	}
	t.AddNote("the bound must cover the window drain transient of a slow memory phase; the default is 4096")
	return t, nil
}

// AblationTrainOnInject toggles predictor training on injected branches: an
// untrained predictor greets every lead change with a burst of
// mispredictions.
func AblationTrainOnInject(ctx context.Context, l *Lab) (*Table, error) {
	t := &Table{
		ID:     "Ablation: predictor training on injection",
		Title:  "contest IPT with and without training the trailing core's predictor",
		Header: []string{"benchmark", "train (default)", "no train", "delta"},
	}
	sweep, err := l.bestPairSweep(ctx, ablationBenches, []contest.Options{{}, {NoTrainOnInject: true}})
	if err != nil {
		return nil, err
	}
	for b, bench := range ablationBenches {
		on, off := sweep[b][0], sweep[b][1]
		t.AddRow(bench, f2(on.IPT()), f2(off.IPT()), pct(off.IPT()/on.IPT()-1))
	}
	t.AddNote("training keeps a trailing core's predictor warm for the moment it takes the lead")
	return t, nil
}
