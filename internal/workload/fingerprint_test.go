package workload

import "testing"

// TestTraceFingerprintPin pins the fingerprint of every benchmark's trace at
// n = 100,000. Every result-cache key is built from these, so a change to
// the generator or to how a trace is stored that moved any instruction bit
// shows here first.
func TestTraceFingerprintPin(t *testing.T) {
	want := map[string]uint64{
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
	if len(want) != len(Benchmarks()) {
		t.Fatalf("%d pins for %d benchmarks", len(want), len(Benchmarks()))
	}
	for _, name := range Benchmarks() {
		if got := MustGenerate(name, 100_000).Fingerprint(); got != want[name] {
			t.Errorf("%s: fingerprint %#x, want %#x", name, got, want[name])
		}
	}
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
