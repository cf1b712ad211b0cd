package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// A/B comparison. Each input file holds the standard output of a series
// of runs: every run prints its {"run": ...} record line and then its
// result line, and other lines are ignored. Runs are paired per workload
// in file order, so run the parent and the change alternately, the same
// seed on both sides of each pair. For each end-to-end metric the verdict
// follows the choosing-metrics rule:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the run-to-run spread (IQR over median) of either side
//     exceeds the bound, unless every change run beats every parent run;
//   - gain: at least 10 pairs, the change wins at least 9 in 10 of them
//     (ties count for neither), and the medians differ by more than the
//     parent's IQR;
//   - no change: anything else.
//
// A workload fails outright when its failed/attempted ratio rose, or when
// two runs of the same seed report different sim_digests.

// runOutput is one run read back from a file.
type runOutput struct {
	rec runRecord
	res result
}

// readRuns parses the record and result lines of a file of run output.
func readRuns(path string) ([]runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runOutput
	var pending *runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var probe map[string]json.RawMessage
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		if raw, ok := probe["run"]; ok {
			var rec runRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("%s: run record: %w", path, err)
			}
			pending = &rec
			continue
		}
		if _, ok := probe["metrics"]; ok && pending != nil {
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, fmt.Errorf("%s: result: %w", path, err)
			}
			runs = append(runs, runOutput{*pending, res})
			pending = nil
		}
	}
	return runs, sc.Err()
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// judgement is one metric's comparison on one workload.
type judgement struct {
	pairs            int
	parentQ, changeQ [3]float64 // q1, median, q3
	worse            float64    // median change as a share of the parent median, positive when worse
	wins             int
	verdict          string
}

// judge compares paired runs of one metric.
func judge(parent, change []float64, higherBetter bool, bound float64) judgement {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	j := judgement{pairs: n}
	if n == 0 {
		j.verdict = "missing"
		return j
	}
	parent, change = parent[:n], change[:n]
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	j.parentQ[0], j.parentQ[1], j.parentQ[2] = quartiles(parent)
	j.changeQ[0], j.changeQ[1], j.changeQ[2] = quartiles(change)
	pm, cm := j.parentQ[1], j.changeQ[1]
	j.worse = (cm - pm) / pm
	if higherBetter {
		j.worse = -j.worse
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := math.Max((j.parentQ[2]-j.parentQ[0])/pm, (j.changeQ[2]-j.changeQ[0])/cm)
	parentIQR := j.parentQ[2] - j.parentQ[0]
	switch {
	case j.worse > bound:
		j.verdict = "regression"
	case spread > bound && !allBetter:
		j.verdict = "unresolved"
	case n >= 10 && 10*j.wins >= 9*n && better(cm, pm) && math.Abs(cm-pm) > parentIQR:
		j.verdict = "gain"
	default:
		j.verdict = "no change"
	}
	return j
}

// compareFiles prints the per-workload comparison of two files of run
// output and reports whether the change passed: no regression and no
// failure on any workload.
func compareFiles(specPath, parentPath, changePath string, w io.Writer) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return false, err
	}
	return compareRuns(bs, parent, change, w), nil
}

func compareRuns(bs benchSpec, parent, change []runOutput, w io.Writer) bool {
	byWorkload := func(runs []runOutput) map[string][]runOutput {
		m := map[string][]runOutput{}
		for _, r := range runs {
			if r.rec.Trace == 0 {
				m[r.rec.Workload] = append(m[r.rec.Workload], r)
			}
		}
		return m
	}
	p, c := byWorkload(parent), byWorkload(change)
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		pr, cr := p[name], c[name]
		n := len(pr)
		if len(cr) < n {
			n = len(cr)
		}
		fmt.Fprintf(w, "workload %s: %d pairs\n", name, n)
		if n < 10 {
			fmt.Fprintf(w, "  fewer than 10 pairs: no gain can be claimed\n")
		}
		for _, problem := range failures(pr, cr) {
			ok = false
			fmt.Fprintf(w, "  FAIL: %s\n", problem)
		}
		fmt.Fprintf(w, "  %-14s %-34s %-34s %8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "wins", "verdict")
		for _, m := range bs.EndToEnd {
			pv, cv := values(pr, m.Name), values(cr, m.Name)
			j := judge(pv, cv, m.Better == "higher", m.Bound)
			if j.verdict == "regression" || j.verdict == "missing" {
				ok = false
			}
			fmt.Fprintf(w, "  %-14s %-34s %-34s %+7.1f%% %3d/%-2d  %s (bound %.0f%%)\n", m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", j.parentQ[1], j.parentQ[0], j.parentQ[2], m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", j.changeQ[1], j.changeQ[0], j.changeQ[2], m.Unit),
				100*j.worse, j.wins, j.pairs, j.verdict, 100*m.Bound)
		}
	}
	for name := range c {
		if _, seen := p[name]; !seen {
			fmt.Fprintf(w, "workload %s: no parent runs\n", name)
		}
	}
	return ok
}

func values(runs []runOutput, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r.res.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failures lists why a workload's change runs fail outright: a higher
// failed/attempted ratio than the parent's, or a sim_digest that differs
// from another run of the same seed on either side.
func failures(parent, change []runOutput) []string {
	var out []string
	ratio := func(runs []runOutput) float64 {
		var failed, attempted int
		for _, r := range runs {
			failed += r.res.Failed
			attempted += r.res.Attempted
		}
		if attempted == 0 {
			return 0
		}
		return float64(failed) / float64(attempted)
	}
	if pr, cr := ratio(parent), ratio(change); cr > pr {
		out = append(out, fmt.Sprintf("failed operations rose from %.4g to %.4g of those attempted", pr, cr))
	}
	// The serve schedule spans the window, so its inputs depend on the
	// window length as well as the seed.
	digests := map[string]map[string]bool{}
	for _, r := range append(append([]runOutput(nil), parent...), change...) {
		key := fmt.Sprintf("seed %d, %gs window", r.rec.Seed, r.rec.Seconds)
		if digests[key] == nil {
			digests[key] = map[string]bool{}
		}
		digests[key][r.rec.SimDigest] = true
	}
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(digests[k]) > 1 {
			var ds []string
			for d := range digests[k] {
				ds = append(ds, d[:min(12, len(d))])
			}
			sort.Strings(ds)
			out = append(out, fmt.Sprintf("%s: runs report different sim_digests (%s)", k, strings.Join(ds, ", ")))
		}
	}
	return out
}
