package trace

import (
	"strings"
	"sync"
	"testing"

	"archcontest/internal/isa"
)

func validInsts() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpALU, PC: 0x40, Dst: 5, Src1: 1, Src2: 2},
		{Op: isa.OpLoad, PC: 0x44, Dst: 6, Src1: 5, Addr: 0x1000},
		{Op: isa.OpStore, PC: 0x48, Src1: 5, Src2: 6, Addr: 0x1008},
		{Op: isa.OpBranch, PC: 0x4c, Src1: 6, Taken: true},
		{Op: isa.OpMul, PC: 0x50, Dst: 7, Src1: 6, Src2: 5},
	}
}

func TestValidateAccepts(t *testing.T) {
	tr := New("ok", validInsts())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]isa.Inst{
		"bad op":           {Op: isa.OpClass(99)},
		"load no addr":     {Op: isa.OpLoad, Dst: 1},
		"load no dst":      {Op: isa.OpLoad, Addr: 0x10},
		"store with dst":   {Op: isa.OpStore, Dst: 1, Addr: 0x10},
		"store no addr":    {Op: isa.OpStore, Src2: 1},
		"branch with dst":  {Op: isa.OpBranch, Dst: 1, PC: 0x40},
		"branch no pc":     {Op: isa.OpBranch},
		"alu with addr":    {Op: isa.OpALU, Dst: 1, Addr: 0x10},
		"reg out of range": {Op: isa.OpALU, Dst: 64},
	}
	for name, bad := range cases {
		insts := append(validInsts(), bad)
		if err := New(name, insts).Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAccessors(t *testing.T) {
	tr := New("t", validInsts())
	if tr.Name() != "t" {
		t.Error("name")
	}
	if tr.Len() != 5 {
		t.Errorf("len = %d", tr.Len())
	}
	if tr.At(1).Op != isa.OpLoad {
		t.Error("At(1) should be the load")
	}
}

func TestMix(t *testing.T) {
	tr := New("t", validInsts())
	m := tr.Mix()
	if m.Total != 5 {
		t.Fatalf("total %d", m.Total)
	}
	if m.Counts[isa.OpALU] != 1 || m.Counts[isa.OpLoad] != 1 ||
		m.Counts[isa.OpStore] != 1 || m.Counts[isa.OpBranch] != 1 || m.Counts[isa.OpMul] != 1 {
		t.Errorf("mix %+v", m.Counts)
	}
	if f := m.Fraction(isa.OpLoad); f != 0.2 {
		t.Errorf("load fraction %g", f)
	}
	if (Mix{}).Fraction(isa.OpALU) != 0 {
		t.Error("empty mix fraction should be 0")
	}
	if !strings.Contains(m.String(), "load=20.0%") {
		t.Errorf("mix string %q", m.String())
	}
}

func TestFootprint(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpLoad, Dst: 1, Addr: 0x1000},
		{Op: isa.OpLoad, Dst: 1, Addr: 0x1010}, // same 64B block
		{Op: isa.OpLoad, Dst: 1, Addr: 0x1040}, // next block
		{Op: isa.OpStore, Src2: 1, Addr: 0x2000},
		{Op: isa.OpALU, Dst: 1},
	}
	tr := New("t", insts)
	if fp := tr.Footprint(64); fp != 3*64 {
		t.Errorf("footprint = %d, want 192", fp)
	}
	if fp := tr.Footprint(4096); fp != 2*4096 {
		t.Errorf("footprint(4096) = %d, want 8192", fp)
	}
}

func TestFootprintPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("t", nil).Footprint(48)
}

// roundTrip checks that every read path of tr returns want exactly: a
// Reader from the start, from every mark and the instruction before it, and
// from every mark-relative offset class, At, and Prefix(k) for a spread of k.
func roundTrip(t *testing.T, tr *Trace, want []isa.Inst) {
	t.Helper()
	if tr.Len() != len(want) {
		t.Fatalf("len %d, want %d", tr.Len(), len(want))
	}
	r := tr.Reader(0)
	var in isa.Inst
	for i := range want {
		if !r.Next(&in) {
			t.Fatalf("reader ended at %d of %d", i, len(want))
		}
		if in != want[i] {
			t.Fatalf("reader[%d] = %+v, want %+v", i, in, want[i])
		}
	}
	if r.Next(&in) {
		t.Fatal("reader read past the end")
	}
	for m := 1 << markShift; m < len(want); m += 1 << markShift {
		for _, i := range []int{m - 1, m} {
			r := tr.Reader(i)
			if !r.Next(&in) || in != want[i] {
				t.Fatalf("Reader(%d) first = %+v, want %+v", i, in, want[i])
			}
		}
	}
	step := max(1, len(want)/997)
	for i := 0; i < len(want); i += step {
		if got := *tr.At(int64(i)); got != want[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want[i])
		}
		r := tr.Reader(i)
		if !r.Next(&in) || in != want[i] {
			t.Fatalf("Reader(%d) first = %+v, want %+v", i, in, want[i])
		}
	}
	for _, k := range []int{0, 1, 255, 256, 257, len(want) / 3, len(want) - 1} {
		if k < 0 || k > len(want) {
			continue
		}
		p := tr.Prefix(k)
		if p.Len() != k {
			t.Fatalf("prefix %d has length %d", k, p.Len())
		}
		pr := p.Reader(0)
		for i := 0; i < k; i++ {
			if !pr.Next(&in) || in != want[i] {
				t.Fatalf("prefix %d [%d] = %+v, want %+v", k, i, in, want[i])
			}
		}
		if pr.Next(&in) {
			t.Fatalf("prefix %d read past its length", k)
		}
		if k > 0 && *p.At(int64(k - 1)) != want[k-1] {
			t.Fatalf("prefix %d At(%d) differs", k, k-1)
		}
	}
}

// highStatics counts the statics of tr whose addresses lie at or above 2^32.
func highStatics(tr *Trace) int {
	n := 0
	for _, s := range tr.statics {
		if s.Addr>>32 != 0 {
			n++
		}
	}
	return n
}

// TestRoundTripWide: 64-bit PCs and addresses, every op class, malformed
// instructions too, and more than 65,536 distinct statics, so the four-byte
// index form runs. The addresses fit in 32 bits up to instruction
// narrowUntil and then cross 2^32, between two marks. Every read path
// returns the input exactly.
func TestRoundTripWide(t *testing.T) {
	const distinct = 70_000
	const narrowUntil = 1000
	var want []isa.Inst
	wide := false
	for i := 0; i < 2*distinct; i++ {
		k := uint64(i % distinct)
		in := isa.Inst{
			PC:   0xffff_ffff_0000_0000 | k<<3,
			Op:   isa.OpClass(k % uint64(isa.NumOpClasses)),
			Src1: isa.RegID(k % 64), Src2: isa.RegID(k / 64 % 64), Dst: isa.RegID(k % 61),
			Taken: k%3 == 0,
		}
		if in.IsMem() || k%7 == 0 {
			in.Addr = 0xfedc_ba98_7654_3210 ^ uint64(i)*0x9e37_79b9_7f4a_7c15
			switch {
			case i == 0:
				in.Addr = 1<<32 - 1 // the largest address below 2^32
			case i < narrowUntil:
				in.Addr = uint64(uint32(in.Addr)) | 1
			case !wide:
				in.Addr, wide = 1<<32, true // the smallest one at or above it
			}
		}
		want = append(want, in)
	}
	// Every op class with a zero address, and the extreme values.
	for op := 0; op <= isa.NumOpClasses; op++ {
		want = append(want, isa.Inst{Op: isa.OpClass(op)})
	}
	want = append(want, isa.Inst{PC: ^uint64(0), Addr: ^uint64(0), Src1: 255, Src2: 255, Dst: 255, Op: 255, Taken: true})
	tr := New("wide", want)
	if tr.idx32 == nil {
		t.Fatal("more than 65,536 statics kept the two-byte index")
	}
	if highStatics(tr) == 0 {
		t.Fatal("no static holds a high address half")
	}
	roundTrip(t, tr, want)
	roundTrip(t, tr.Prefix(narrowUntil), want[:narrowUntil])
}

// TestAddressHighHalves: one load's addresses below 2^32 share a static,
// and each high half at or above 2^32 gives it another, wherever in the
// trace it first appears.
func TestAddressHighHalves(t *testing.T) {
	load := func(a uint64) isa.Inst { return isa.Inst{Op: isa.OpLoad, Dst: 1, Addr: a} }
	for _, c := range []struct {
		addrs         []uint64
		statics, high int // all statics (the ALU op's included), those with a high half
	}{
		{[]uint64{8, 1<<32 - 1}, 2, 0},
		{[]uint64{1 << 32}, 2, 1},
		{[]uint64{8, 16, 1 << 32, 24}, 3, 1},
		{[]uint64{^uint64(0), 8, 1<<63 | 8, ^uint64(0) - 8}, 4, 2},
	} {
		var want []isa.Inst
		for _, a := range c.addrs {
			want = append(want, load(a), isa.Inst{Op: isa.OpALU, Dst: 2})
		}
		tr := New("high", want)
		if got := highStatics(tr); got != c.high {
			t.Errorf("%#x: %d statics with a high half, want %d", c.addrs, got, c.high)
		}
		if got := len(tr.statics); got != c.statics {
			t.Errorf("%#x: %d statics, want %d", c.addrs, got, c.statics)
		}
		roundTrip(t, tr, want)
	}
	// The load above 2^32 first, then enough statics to regrow the table
	// twice, then the same load below 2^32: the regrown table must not
	// hand it the static with the high half.
	want := []isa.Inst{load(1<<32 | 8)}
	for pc := uint64(1); pc <= 3000; pc++ {
		want = append(want, isa.Inst{Op: isa.OpALU, PC: pc << 2, Dst: 2})
	}
	want = append(want, load(8))
	roundTrip(t, New("regrown", want), want)
}

// TestRoundTripGenerated: a trace built from a generator-like stream takes
// the two-byte form and costs far less than an isa.Inst per instruction.
func TestRoundTripGenerated(t *testing.T) {
	var want []isa.Inst
	for i := 0; i < 100_000; i++ {
		in := isa.Inst{PC: 0x40 + uint64(i%40)*4, Op: isa.OpClass(i % 40 % isa.NumOpClasses)}
		switch in.Op {
		case isa.OpLoad:
			in.Dst, in.Addr = 3, 0x1000_0000+uint64(i)*8
		case isa.OpStore:
			in.Src2, in.Addr = 3, 0x2000_0000+uint64(i)*8
		case isa.OpBranch:
			in.Taken = i%3 == 0
		default:
			in.Dst = isa.RegID(1 + i%40)
		}
		want = append(want, in)
	}
	tr := New("gen", want)
	if tr.idx16 == nil {
		t.Fatal("40 statics took the four-byte index")
	}
	if highStatics(tr) != 0 {
		t.Fatal("addresses below 2^32 gave a static a high half")
	}
	roundTrip(t, tr, want)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if b := float64(tr.Bytes()) / float64(tr.Len()); b > 4 {
		t.Errorf("%.2f B/inst, want at most 4", b)
	}
}

// TestEmptyTrace: an empty trace reads as empty on every path.
func TestEmptyTrace(t *testing.T) {
	tr := New("empty", nil)
	roundTrip(t, tr, nil)
	if tr.Mix().Total != 0 || tr.Footprint(64) != 0 || tr.Validate() != nil {
		t.Error("empty trace has content")
	}
}

// TestConcurrentReads: At, Reader and Fingerprint share nothing mutable, so
// concurrent readers of one trace agree (run under -race).
func TestConcurrentReads(t *testing.T) {
	var want []isa.Inst
	for i := 0; i < 3000; i++ {
		want = append(want, isa.Inst{PC: uint64(i%50) * 4, Op: isa.OpLoad, Dst: 1, Addr: uint64(i+1) * 8})
	}
	tr := New("shared", want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(want); i += 7 {
				if got := *tr.At(int64(i)); got != want[i] {
					t.Errorf("At(%d) = %+v, want %+v", i, got, want[i])
					return
				}
			}
			tr.Fingerprint()
		}(g)
	}
	wg.Wait()
}
