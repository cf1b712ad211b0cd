package workload

import (
	"testing"

	"archcontest/internal/isa"
	"archcontest/internal/trace"
)

// TestTraceFingerprintPin pins the fingerprint of every benchmark's trace at
// n = 100,000. Every result-cache key is built from these, so a change to
// the generator or to how a trace is stored that moved any instruction bit
// shows here first. The FNV-1a pins are the fingerprints under their
// earlier definition, which fnv1a recomputes over the decoded stream, so
// they still prove that no instruction bit has moved since they were
// pinned.
func TestTraceFingerprintPin(t *testing.T) {
	want := map[string]uint64{
		"bzip":   0xf36d855c8a2a1a69,
		"crafty": 0x1ac7a1d262f753a5,
		"gap":    0xf883db87402eaaeb,
		"gcc":    0xf54cde82fe4f03ed,
		"gzip":   0x6d9e4ce5b7de0d1b,
		"mcf":    0x1b65532c1c760b07,
		"parser": 0x4536fc7998624175,
		"perl":   0x8108c3b72c327fae,
		"twolf":  0xd4431c8d5b2d86ee,
		"vortex": 0x22ed7af3e9b67c50,
		"vpr":    0x87c769c1c06bc20,
	}
	wantFNV := map[string]uint64{
		"bzip":   0xdb0f61b6fdf3e3b3,
		"crafty": 0x40d17d7292aa010,
		"gap":    0x3002b783fdd43afe,
		"gcc":    0x4f535d42f1f0fbb2,
		"gzip":   0x560e2689c975911b,
		"mcf":    0x64d51b5c5c19f43d,
		"parser": 0x41d31a904dc8a127,
		"perl":   0xea5cf1e32298db76,
		"twolf":  0xa90dcb6f09cf675e,
		"vortex": 0xcae1d38f96fd1225,
		"vpr":    0xfe20831b6bff4bb6,
	}
	if len(want) != len(Benchmarks()) || len(wantFNV) != len(Benchmarks()) {
		t.Fatalf("%d and %d pins for %d benchmarks", len(want), len(wantFNV), len(Benchmarks()))
	}
	for _, name := range Benchmarks() {
		tr := MustGenerate(name, 100_000)
		if got := tr.Fingerprint(); got != want[name] {
			t.Errorf("%s: fingerprint %#x, want %#x", name, got, want[name])
		}
		if got := fnv1a(tr); got != wantFNV[name] {
			t.Errorf("%s: FNV-1a %#x, want %#x", name, got, wantFNV[name])
		}
	}
}

// fnv1a is FNV-1a over the trace's name, its length and every field of
// every decoded instruction, eight bytes a word.
func fnv1a(tr *trace.Trace) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := 0; i < len(tr.Name()); i++ {
		h ^= uint64(tr.Name()[i])
		h *= prime64
	}
	mix(uint64(tr.Len()))
	r := tr.Reader(0)
	var in isa.Inst
	for r.Next(&in) {
		mix(in.PC)
		mix(in.Addr)
		taken := uint64(0)
		if in.Taken {
			taken = 1
		}
		mix(uint64(in.Src1) | uint64(in.Src2)<<16 | uint64(in.Dst)<<32 | uint64(in.Op)<<48 | taken<<56)
	}
	return h
}

// TestTraceBytesPin pins the resident size of every benchmark's trace at
// n = 100,000: a deterministic counter for the trace's memory, which wall
// time and RSS measure only through host noise. A change to the encoding or
// to the generator that moves any trace's size shows here.
func TestTraceBytesPin(t *testing.T) {
	want := map[string]int64{
		"bzip":   347_268,
		"crafty": 282_240,
		"gap":    386_652,
		"gcc":    381_200,
		"gzip":   389_904,
		"mcf":    433_688,
		"parser": 378_880,
		"perl":   314_920,
		"twolf":  418_576,
		"vortex": 334_680,
		"vpr":    404_968,
	}
	if len(want) != len(Benchmarks()) {
		t.Fatalf("%d pins for %d benchmarks", len(want), len(Benchmarks()))
	}
	for _, name := range Benchmarks() {
		if got := MustGenerate(name, 100_000).Bytes(); got != want[name] {
			t.Errorf("%s: %d resident bytes, want %d", name, got, want[name])
		}
	}
}
