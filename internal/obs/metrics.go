package obs

import "fmt"

// Metrics is the aggregated observability report of one run. The JSON
// field names are a stable schema (SchemaVersion); downstream analysis
// may rely on them.
type Metrics struct {
	Schema    string `json:"schema"`
	Benchmark string `json:"benchmark"`
	// Kind is "contest" or "single".
	Kind string `json:"kind"`
	// Insts is the trace length; TimeNs the system completion time.
	Insts  int64   `json:"insts"`
	TimeNs float64 `json:"time_ns"`
	// IPT is the system-level instructions per nanosecond.
	IPT float64 `json:"ipt"`
	// Winner is the finishing core's index (-1 for single-core runs).
	Winner      int   `json:"winner"`
	LeadChanges int64 `json:"lead_changes"`
	// SampleIntervalNs is the recorder's sampling period; DroppedEvents
	// counts ring overwrites (interval series may be truncated when
	// non-zero; aggregates are exact regardless).
	SampleIntervalNs float64       `json:"sample_interval_ns"`
	DroppedEvents    int64         `json:"dropped_events"`
	Cores            []CoreMetrics `json:"cores"`
}

// CoreMetrics aggregates one core's run.
type CoreMetrics struct {
	Core int    `json:"core"`
	Name string `json:"name"`

	Retired       int64 `json:"retired"`
	Injected      int64 `json:"injected"`
	EarlyResolved int64 `json:"early_resolved"`
	Cycles        int64 `json:"cycles"`

	IPC            float64 `json:"ipc"`
	MispredictRate float64 `json:"mispredict_rate"`
	// L1DMissRate is misses per L1D access; MLPProxy is the average
	// number of outstanding main-memory misses assuming full overlap
	// (L2 misses x memory latency / cycles) — an upper-bound proxy for
	// the memory-level parallelism the core is exposed to.
	L1DMissRate float64 `json:"l1d_miss_rate"`
	MLPProxy    float64 `json:"mlp_proxy"`

	// LeaderShare is the fraction of system time this core held the
	// lead; LeadChangesWon counts the changes it won. Both zero in
	// single-core runs except LeaderShare, which is 1 for the only core.
	LeaderShare    float64 `json:"leader_share"`
	LeadChangesWon int64   `json:"lead_changes_won"`
	Saturated      bool    `json:"saturated"`

	// Intervals is the per-sampling-interval series reconstructed from
	// the retained ring events (possibly truncated to the ring window).
	Intervals []IntervalMetrics `json:"intervals"`
}

// IntervalMetrics is the delta between two consecutive samples of one
// core.
type IntervalMetrics struct {
	StartNs float64 `json:"start_ns"`
	EndNs   float64 `json:"end_ns"`
	Retired int64   `json:"retired"`
	// Injected counts GRB-injected completions in the interval — the
	// injection traffic of a trailing core.
	Injected    int64   `json:"injected"`
	Mispredicts int64   `json:"mispredicts"`
	L1DMisses   int64   `json:"l1d_misses"`
	IPC         float64 `json:"ipc"`
	// Lag is the instantaneous lagging distance behind the leader at the
	// interval's end, in instructions.
	Lag int64 `json:"lag"`
}

// Metrics aggregates the recorder's observations. Call after FinishRun or
// FinishContest.
func (r *Recorder) Metrics() (Metrics, error) {
	if !r.finished {
		return Metrics{}, fmt.Errorf("obs: Metrics before FinishRun/FinishContest")
	}
	kind := "single"
	if r.sys != nil {
		kind = "contest"
	}
	m := Metrics{
		Schema:           SchemaVersion,
		Benchmark:        r.benchmark,
		Kind:             kind,
		Insts:            r.insts,
		TimeNs:           r.endTime.Nanoseconds(),
		Winner:           r.winner,
		LeadChanges:      r.leadChanges,
		SampleIntervalNs: r.opts.SampleIntervalNs,
		DroppedEvents:    r.Dropped(),
	}
	if ns := m.TimeNs; ns > 0 {
		m.IPT = float64(r.insts) / ns
	}

	events := r.ring.events()
	for i, st := range r.finalStats {
		cm := CoreMetrics{
			Core:           i,
			Name:           r.coreName(i),
			Retired:        st.Retired,
			Injected:       st.Injected,
			EarlyResolved:  st.EarlyResolved,
			Cycles:         st.Cycles,
			IPC:            st.IPC(),
			MispredictRate: st.MispredictRate(),
			LeadChangesWon: r.leadWon[i],
			Saturated:      r.saturated[i],
		}
		if st.L1D.Accesses > 0 {
			cm.L1DMissRate = float64(st.L1D.Misses) / float64(st.L1D.Accesses)
		}
		if st.Cycles > 0 && i < len(r.cores) && r.cores[i] != nil {
			cm.MLPProxy = float64(st.L2D.Misses) * float64(r.cores[i].memLat) / float64(st.Cycles)
		}
		if total := r.endTime; total > 0 {
			cm.LeaderShare = float64(r.occupancy[i]) / float64(total)
		}
		cm.Intervals = intervalsFor(events, int32(i))
		m.Cores = append(m.Cores, cm)
	}
	return m, nil
}

func (r *Recorder) coreName(i int) string {
	if i < len(r.names) {
		return r.names[i]
	}
	return fmt.Sprintf("core%d", i)
}

// intervalsFor diffs consecutive samples of one core into interval
// metrics.
func intervalsFor(events []Event, core int32) []IntervalMetrics {
	var out []IntervalMetrics
	var prev *Event
	for i := range events {
		e := &events[i]
		if e.Kind != KindSample || e.Core != core {
			continue
		}
		if prev != nil && e.Time > prev.Time {
			iv := IntervalMetrics{
				StartNs:     prev.Time.Nanoseconds(),
				EndNs:       e.Time.Nanoseconds(),
				Retired:     e.Retired - prev.Retired,
				Injected:    e.Injected - prev.Injected,
				Mispredicts: e.Mispredicts - prev.Mispredicts,
				L1DMisses:   e.L1DMisses - prev.L1DMisses,
				Lag:         e.Lag,
			}
			if dc := e.Cycles - prev.Cycles; dc > 0 {
				iv.IPC = float64(iv.Retired) / float64(dc)
			}
			out = append(out, iv)
		}
		prev = e
	}
	return out
}
