package trace_test

import (
	"fmt"
	"testing"

	"archcontest/internal/isa"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// TestFingerprint: equal streams fingerprint equally however they are
// encoded, and every field, the name and the length move the fingerprint.
// The benchmarks' traces at two lengths all fingerprint differently.
func TestFingerprint(t *testing.T) {
	base := []isa.Inst{
		{PC: 0x40, Op: isa.OpBranch, Taken: true},
		{PC: 0x44, Op: isa.OpALU, Dst: 3, Src1: 1, Src2: 2},
		{PC: 0x48, Op: isa.OpLoad, Dst: 4, Src1: 3, Addr: 0x1000},
	}
	a, b := trace.New("gcc", base), trace.New("gcc", base)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical traces fingerprint differently")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	mutants := map[string]*trace.Trace{
		"name":   trace.New("mcf", base),
		"length": trace.New("gcc", base[:2]),
	}
	for field, mut := range map[string]func(*isa.Inst){
		"PC":    func(in *isa.Inst) { in.PC += 4 },
		"Addr":  func(in *isa.Inst) { in.Addr += 8 },
		"Src1":  func(in *isa.Inst) { in.Src1++ },
		"Src2":  func(in *isa.Inst) { in.Src2++ },
		"Dst":   func(in *isa.Inst) { in.Dst++ },
		"Op":    func(in *isa.Inst) { in.Op = isa.OpStore },
		"Taken": func(in *isa.Inst) { in.Taken = !in.Taken },
	} {
		for i := range base {
			insts := append([]isa.Inst(nil), base...)
			mut(&insts[i])
			mutants[fmt.Sprintf("%s of [%d]", field, i)] = trace.New("gcc", insts)
		}
	}
	for what, m := range mutants {
		if m.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s differs, fingerprint does not", what)
		}
	}

	// A prefix of a trace with four-byte static indices and the same
	// instructions encoded afresh, with two-byte ones, are one stream.
	var insts []isa.Inst
	for i := 0; i < 70_000; i++ {
		in := isa.Inst{PC: uint64(i) * 4, Op: isa.OpALU, Dst: isa.RegID(i % 32)}
		if i%3 == 0 {
			in.Op, in.Addr = isa.OpLoad, 0x1000+uint64(i)*8
		}
		insts = append(insts, in)
	}
	wide := trace.New("wide", insts)
	if trace.IndexWidth(wide) != 4 {
		t.Fatal("70,000 statics kept two-byte indices")
	}
	for _, k := range []int{0, 1, 257, 1 << 16} {
		p := wide.Prefix(k)
		fresh := trace.New(p.Name(), insts[:k])
		if trace.IndexWidth(fresh) != 2 {
			t.Fatalf("%d statics took four-byte indices", k)
		}
		if p.Fingerprint() != fresh.Fingerprint() {
			t.Errorf("Prefix(%d) fingerprints %#x, the same stream encoded afresh %#x", k, p.Fingerprint(), fresh.Fingerprint())
		}
	}

	seen := make(map[uint64]string)
	for _, n := range []int{1000, 100_000} {
		for _, name := range workload.Benchmarks() {
			fp := workload.MustGenerate(name, n).Fingerprint()
			if prev, dup := seen[fp]; dup {
				t.Errorf("%s at n = %d and %s share fingerprint %#x", name, n, prev, fp)
			}
			seen[fp] = fmt.Sprintf("%s at n = %d", name, n)
		}
	}
}
