package fuzz

// The native fuzz targets. Each decodes its input with the total decoder
// (decode.go), runs the engine with the full verification subsystem
// attached, and fails on any invariant violation, oracle divergence, or
// event-driven/single-step mismatch. Sustained runs:
//
//	go test -fuzz=FuzzPipeline      -fuzztime=30s -run '^$' ./fuzz/
//	go test -fuzz=FuzzContest       -fuzztime=30s -run '^$' ./fuzz/
//	go test -fuzz=FuzzResultCacheKey -fuzztime=30s -run '^$' ./fuzz/
//	go test -fuzz=FuzzTraceRoundTrip -fuzztime=30s -run '^$' ./fuzz/

import (
	"reflect"
	"testing"

	"archcontest/internal/contest"
	"archcontest/internal/experiments"
	"archcontest/internal/invariant"
	"archcontest/internal/isa"
	"archcontest/internal/sim"
	"archcontest/internal/trace"
)

func addSeeds(f *testing.F) {
	for _, s := range SeedCorpus() {
		f.Add(s)
	}
}

// FuzzPipeline: any decodable single-core run retires the whole trace in
// order with clean invariants, replays the oracle, and is bit-identical
// between the event-driven and single-step schedulers.
func FuzzPipeline(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg := decodePipeline(data)
		chk := invariant.NewCoreChecker(tr, invariant.Options{
			OnViolation: func(err error) { t.Error(err) },
			ScanEvery:   4,
		})
		fast, err := sim.Run(cfg, tr, sim.RunOptions{Checker: chk, MaxCycles: 50_000_000})
		if err != nil {
			t.Fatalf("event-driven run failed (deadlock?): %v", err)
		}
		chk.Finish(int64(tr.Len()))

		slow, err := sim.Run(cfg, tr, sim.RunOptions{SingleStep: true, MaxCycles: 50_000_000})
		if err != nil {
			t.Fatalf("single-step run failed: %v", err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("event-driven diverges from single-step\nfast: %+v\nslow: %+v", fast, slow)
		}
	})
}

// FuzzContest: any decodable contested run finishes with clean contest
// invariants (bounded lag, GRB protocol, leader accounting, store-merge
// prefix, exception rendezvous) and is bit-identical between the
// event-driven and single-step schedulers.
func FuzzContest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfgs, opts := decodeContest(data)
		obs := invariant.NewSystemObserver(tr, invariant.Options{
			OnViolation: func(err error) { t.Error(err) },
			ScanEvery:   8,
		})
		vopts := opts
		vopts.Observer = obs
		fast, err := contest.Run(cfgs, tr, vopts)
		if err != nil {
			t.Fatalf("event-driven contest failed (deadlock?): %v", err)
		}
		obs.Finish(fast)

		sopts := opts
		sopts.SingleStep = true
		slow, err := contest.Run(cfgs, tr, sopts)
		if err != nil {
			t.Fatalf("single-step contest failed: %v", err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("event-driven diverges from single-step\nfast: %+v\nslow: %+v", fast, slow)
		}
	})
}

// FuzzResultCacheKey: the campaign cache key is deterministic, blind to
// attached checkers (they are not part of the result), and sensitive to
// every decoded input dimension — so a cache can neither split on checker
// attachment nor collide across different runs.
func FuzzResultCacheKey(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfgs, opts := decodeContest(data)
		cfg := cfgs[0]

		runKey := func(ro sim.RunOptions) string { return experiments.RunKey(tr, cfg, ro) }
		contestKey := func(co contest.Options) string { return experiments.ContestKey(tr, cfgs, co) }

		// Determinism.
		if runKey(sim.RunOptions{}) != runKey(sim.RunOptions{}) {
			t.Error("run key not deterministic")
		}
		if contestKey(opts) != contestKey(opts) {
			t.Error("contest key not deterministic")
		}

		// Checker blindness: attaching verification must not change a key,
		// or verified and plain results would occupy distinct cache slots
		// and the bypass rule would silently stop mattering.
		chk := invariant.NewCoreChecker(tr, invariant.Options{})
		if runKey(sim.RunOptions{Checker: chk}) != runKey(sim.RunOptions{}) {
			t.Error("run key sees the attached checker")
		}
		vopts := opts
		vopts.Observer = invariant.NewSystemObserver(tr, invariant.Options{})
		if contestKey(vopts) != contestKey(opts) {
			t.Error("contest key sees the attached observer")
		}
		// Progress blindness, likewise: a served job's progress hook must
		// not split its leaf from the same plain leaf.
		progress := func(done, total int64) {}
		if runKey(sim.RunOptions{Progress: progress}) != runKey(sim.RunOptions{}) {
			t.Error("run key sees the progress callback")
		}
		popts := opts
		popts.Progress = progress
		if contestKey(popts) != contestKey(opts) {
			t.Error("contest key sees the progress callback")
		}

		// The default latency fills an unset one: the engine runs both
		// alike, so they must share one cache entry.
		unset, named := opts, opts
		unset.LatencyNs, named.LatencyNs = 0, 1
		if contestKey(unset) != contestKey(named) {
			t.Error("contest key splits an unset latency from the default one")
		}

		// Sensitivity: every decoded dimension must move the key.
		seen := map[string]string{contestKey(opts): "base"}
		mutate := func(label string, co contest.Options) {
			k := contestKey(co)
			if prev, dup := seen[k]; dup {
				t.Errorf("contest key collision: %s == %s", label, prev)
			}
			seen[k] = label
		}
		m := opts
		m.LatencyNs += 0.25
		mutate("latency", m)
		m = opts
		m.MaxLag++
		mutate("maxlag", m)
		m = opts
		m.StoreQueueCap++
		mutate("sqcap", m)
		m = opts
		m.ExceptionEvery++
		mutate("exception", m)
		m = opts
		m.NoTrainOnInject = !m.NoTrainOnInject
		mutate("train", m)

		wider := cfg
		wider.Width++
		if experiments.RunKey(tr, wider, sim.RunOptions{}) == runKey(sim.RunOptions{}) {
			t.Error("run key blind to the configuration")
		}
		if tr.Len() > 1 {
			short := tr.Prefix(tr.Len() - 1)
			if experiments.RunKey(short, cfg, sim.RunOptions{}) == runKey(sim.RunOptions{}) {
				t.Error("run key blind to the trace")
			}
		}
	})
}

// TestDecoderTotal locks the decoder's contract directly: every seed (and a
// byte sweep) decodes to validating inputs.
func TestDecoderTotal(t *testing.T) {
	inputs := SeedCorpus()
	for b := 0; b < 256; b += 17 {
		inputs = append(inputs, []byte{byte(b), byte(b ^ 0x5a), byte(b * 3)})
	}
	for _, data := range inputs {
		tr, cfgs, opts := decodeContest(data)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", data, err)
		}
		if tr.Len() < 64 || tr.Len() > maxFuzzInsts {
			t.Fatalf("%v: trace length %d out of range", data, tr.Len())
		}
		for _, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%v: %v", data, err)
			}
		}
		if opts.MaxTimeNs <= 0 {
			t.Fatalf("%v: no time budget", data)
		}
	}
}

// TestSeedRegimes locks that the constructed seeds really reach the regimes
// they claim: the saturation seed saturates a core, the backpressure seed
// fills the store queue, the exception seeds rendezvous.
func TestSeedRegimes(t *testing.T) {
	seeds := SeedCorpus()

	_, _, exc := decodeContest(seeds[1])
	if exc.ExceptionEvery == 0 {
		t.Error("exception seed decodes without exceptions")
	}
	_, _, kill := decodeContest(seeds[2])
	if !kill.ExceptionKillRefork {
		t.Error("kill-refork seed decodes without kill-refork")
	}

	trS, cfgsS, optsS := decodeContest(seeds[3])
	resS, err := contest.Run(cfgsS, trS, optsS)
	if err != nil {
		t.Fatal(err)
	}
	sat := false
	for _, s := range resS.Saturated {
		sat = sat || s
	}
	if !sat {
		t.Error("saturation seed saturates no core")
	}

	trB, cfgsB, optsB := decodeContest(seeds[4])
	if optsB.StoreQueueCap >= 256 {
		t.Fatalf("backpressure seed decodes store queue cap %d", optsB.StoreQueueCap)
	}
	if _, err := contest.Run(cfgsB, trB, optsB); err != nil {
		t.Fatal(err)
	}

	_, cfgs3, _ := decodeContest(seeds[5])
	if len(cfgs3) != 3 {
		t.Errorf("3-way seed decodes %d cores", len(cfgs3))
	}
}

// refFingerprint is trace.Fingerprint's definition computed from the raw
// slice, without a static table: FNV-1a over the name, one multiply-rotate
// step for the length and one per instruction, over a digest of every field
// but the address xored with the address times an odd constant, then
// splitmix64's finalizer.
func refFingerprint(name string, insts []isa.Inst) uint64 {
	rotl := func(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }
	step := func(h, v uint64) uint64 { return rotl((h^v)*0x9e3779b97f4a7c15, 29) }
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h = step(h, uint64(len(insts)))
	for _, in := range insts {
		f := uint64(in.Src1) | uint64(in.Src2)<<8 | uint64(in.Dst)<<16 | uint64(in.Op)<<24
		if in.Taken {
			f |= 1 << 32
		}
		digest := (rotl(in.PC*0x94d049bb133111eb, 32) ^ f) * 0x9e3779b97f4a7c15
		h = step(h, digest^in.Addr*0xbf58476d1ce4e5b9)
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// widthSwitchSeed encodes, in decodeInsts' layout, 400 loads with 32-bit
// addresses, one load at 2^32 and 400 more narrow loads: a trace whose
// addresses cross 2^32 mid-stream, between the marks at 256 and 512.
func widthSwitchSeed() []byte {
	narrow := func(i int) []byte { // op, three registers, PC byte, u16 address
		return []byte{byte(isa.OpLoad), 1, 2, 3, byte(i), byte(i), byte(i>>8) | 1}
	}
	wideSel := 0x80 // address as a full u64, PC as one byte
	for wideSel%isa.NumOpClasses != int(isa.OpLoad) {
		wideSel++
	}
	var b []byte
	for i := 0; i < 400; i++ {
		b = append(b, narrow(i)...)
	}
	b = append(b, byte(wideSel), 1, 2, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0)
	for i := 0; i < 400; i++ {
		b = append(b, narrow(i)...)
	}
	return b
}

// FuzzTraceRoundTrip: any decodable instruction slice is well formed, and
// the compact trace built from it returns it exactly through a Reader from
// the start, from any offset and from either side of every mark, through
// At, and through its prefixes, with the fingerprint of the raw slice.
func FuzzTraceRoundTrip(f *testing.F) {
	addSeeds(f)
	// The seeds back to back, repeated: a few hundred instructions, so a
	// Reader starts past the first 256-instruction mark.
	var long []byte
	for len(long) < 8<<10 {
		for _, s := range SeedCorpus() {
			long = append(long, s...)
		}
	}
	f.Add(long)
	f.Add(widthSwitchSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := decodeInsts(data)
		tr := trace.New("fuzz", insts)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(insts) {
			t.Fatalf("length %d, want %d", tr.Len(), len(insts))
		}
		if got, want := tr.Fingerprint(), refFingerprint("fuzz", insts); got != want {
			t.Errorf("fingerprint %#x, want %#x", got, want)
		}
		var in isa.Inst
		var starts []int
		for from := 0; from <= len(insts); from += 1 + from/2 {
			starts = append(starts, from)
		}
		for m := 256; m <= len(insts); m += 256 {
			starts = append(starts, m-1, m)
		}
		for _, from := range starts {
			r := tr.Reader(from)
			for i := from; i < len(insts); i++ {
				if !r.Next(&in) || in != insts[i] {
					t.Fatalf("reader from %d: [%d] = %+v, want %+v", from, i, in, insts[i])
				}
			}
			if r.Next(&in) {
				t.Fatalf("reader from %d read past the end", from)
			}
		}
		for i := range insts {
			if got := *tr.At(int64(i)); got != insts[i] {
				t.Fatalf("At(%d) = %+v, want %+v", i, got, insts[i])
			}
		}
		for _, k := range []int{0, len(insts) / 2, len(insts)} {
			p := tr.Prefix(k)
			r := p.Reader(0)
			for i := 0; i < k; i++ {
				if !r.Next(&in) || in != insts[i] {
					t.Fatalf("prefix %d: [%d] = %+v, want %+v", k, i, in, insts[i])
				}
			}
			if r.Next(&in) {
				t.Fatalf("prefix %d read past its length", k)
			}
			name := p.Name()
			if got, want := p.Fingerprint(), refFingerprint(name, insts[:k]); got != want {
				t.Errorf("prefix %d fingerprint %#x, want %#x", k, got, want)
			}
		}
	})
}
