package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean returns the geometric mean of positive xs, or NaN for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// itemTimes collects the samples of named items (a job, an experiment, a
// campaign leaf) across the rounds of a run, each in wall and calibrated
// seconds.
type itemTimes struct {
	order   []string
	samples map[string][]itemSample
}

type itemSample struct{ wall, cal float64 }

func (t *itemTimes) add(item string, wall, cal float64) {
	if t.samples == nil {
		t.samples = map[string][]itemSample{}
	}
	if _, ok := t.samples[item]; !ok {
		t.order = append(t.order, item)
	}
	t.samples[item] = append(t.samples[item], itemSample{wall, cal})
}

// median returns the item's median calibrated seconds, or its median wall
// seconds.
func (t *itemTimes) median(item string, calibrated bool) float64 {
	xs := make([]float64, 0, len(t.samples[item]))
	for _, s := range t.samples[item] {
		if calibrated {
			xs = append(xs, s.cal)
		} else {
			xs = append(xs, s.wall)
		}
	}
	return median(xs)
}

// total sums the items' medians: the time of one round with every item at
// its median.
func (t *itemTimes) total(calibrated bool) float64 {
	var sum float64
	for _, item := range t.order {
		sum += t.median(item, calibrated)
	}
	return sum
}

// walls returns every item's wall samples, for the run record.
func (t *itemTimes) walls() map[string][]float64 {
	out := make(map[string][]float64, len(t.samples))
	for item, ss := range t.samples {
		for _, s := range ss {
			out[item] = append(out[item], s.wall)
		}
	}
	return out
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the same rule as Python's statistics.quantiles(xs, n=4), the
// "exclusive" method, so spreads computed here match spreads computed from
// the printed results with Python. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q = append(q, (s[j-1]*(n-delta)+s[j]*delta)/n)
	}
	return q[0], q[1], q[2]
}

// tailPercentile returns the highest whole percentile p of xs that still
// has at least ten samples above it, and the nearest-rank value at p. With
// fewer than twenty samples no percentile at or above the median qualifies
// and ok is false. At 200 samples this is the 95th percentile.
func tailPercentile(xs []float64) (p int, value float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	p = 100 * (n - 10) / n
	if p > 99 {
		p = 99
	}
	rank := (p*n + 99) / 100 // nearest rank: ceil(p·n/100)
	return p, sorted(xs)[rank-1], true
}
