package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracing. With --trace 1 the benchmark records a span around each call it
// makes into a layer of the program: name, layer, start, end, the span that
// caused it and a request id. Spans stay in memory and are written when the
// run ends, as a Chrome trace and as a per-layer table of count, total time,
// self time and share of the traced wall. Spans inside the program (for
// example per pipeline stage) are not recorded; the benchmark only sees the
// public functions it calls.

// span is one timed call into a layer.
type span struct {
	ID, Parent  int // Parent 0 marks a root span
	Layer, Name string
	Req         string
	Start, End  time.Time
}

// recorder collects spans. A nil *recorder records nothing, so untraced code
// paths call it unconditionally.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// when returns r if on, else nil: the recorder for one traced or untraced
// round.
func (r *recorder) when(on bool) *recorder {
	if on {
		return r
	}
	return nil
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent int, layer, name, req string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Layer: layer, Name: name, Req: req, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a finished span whose times were measured elsewhere, such as
// a leaf the campaign engine logged or a job phase a node timestamped.
func (r *recorder) add(parent int, layer, name, req string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Layer: layer, Name: name, Req: req, Start: start, End: end})
	return len(r.spans)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer         string
	Count         int
	TotalS, SelfS float64
	Share         float64
}

// layers aggregates the spans by layer. A span's self time is its duration
// minus the part of it that its children cover (overlapping children count
// once); share is self time over wall, the traced measured wall, so layers
// running in parallel can sum past 1.
func (r *recorder) layers(wall float64) []layerRow {
	spans := r.snapshot()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		row := rows[s.Layer]
		if row == nil {
			row = &layerRow{Layer: s.Layer}
			rows[s.Layer] = row
		}
		dur := s.End.Sub(s.Start).Seconds()
		row.Count++
		row.TotalS += dur
		row.SelfS += dur - covered(s, children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		if wall > 0 {
			row.Share = row.SelfS / wall
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered returns the seconds of parent's interval covered by the union of
// the children's intervals.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if b.IsZero() {
			continue
		}
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum float64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			sum += cur.b.Sub(cur.a).Seconds()
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a).Seconds()
	}
	return sum
}

// writeTable prints the per-layer table.
func writeTable(w io.Writer, rows []layerRow, wall float64) {
	fmt.Fprintf(w, "traced wall %.3fs\n%-12s %8s %10s %10s %8s\n", wall, "layer", "count", "total_s", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %10.4f %10.4f %8.4f\n", r.Layer, r.Count, r.TotalS, r.SelfS, r.Share)
	}
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing or
// Perfetto): one X event per span, laid out on the first lane free at its
// start, so the lane count is the achieved concurrency.
func (r *recorder) writeChrome(w io.Writer) error {
	spans := r.snapshot()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var laneEnd []time.Time
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		lane := -1
		for i, end := range laneEnd {
			if !end.After(s.Start) {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[lane] = s.End
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:   float64(s.Start.Sub(r.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Tid:  lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	return bw.Flush()
}
