// Package trace defines the dynamic instruction trace that drives the core
// model and the contesting system.
//
// A trace is the stand-in for a benchmark's 100M-instruction SimPoint: a
// fixed, deterministic sequence of dynamic instructions that every core of a
// contesting system executes identically. Traces are immutable after
// construction. Consumers read them front to back through a Reader; the
// position in the stream is the retired-instruction number that the paper's
// pop-counter/fetch-counter protocol is defined over.
//
// # Encoding
//
// A generated trace repeats a few thousand distinct static instructions, so
// every trace, however it was built, is stored in one lossless compact form:
//
//   - a table of the distinct static instructions (PC, op, sources,
//     destination, branch outcome and the high 32 bits of their addresses),
//     in order of first appearance;
//   - for each dynamic instruction, the index of its static, two bytes wide
//     while the table holds at most 65,536 entries and four bytes beyond;
//   - the low 32 bits of the nonzero memory addresses, in order: for a
//     well-formed trace, exactly its load and store addresses;
//   - the address cursor at every 256th instruction, so a Reader can start
//     anywhere without decoding from the beginning.
//
// Instructions that differ only in the high half of their address are
// distinct statics. Every address a generated trace carries lies below 2^32,
// so its statics are those of its PCs and fields alone.
//
// A generated trace costs 2.3–3.9 bytes per instruction instead of the 24 of
// an isa.Inst. An Encoder builds the form one instruction at a time.
package trace

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"archcontest/internal/isa"
)

// markShift sets the spacing of the address-cursor marks: one every
// 1<<markShift instructions.
const markShift = 8

// code is a trace's encoded instruction stream (see the package comment).
// A prefix shares its parent's code and caps the length.
type code struct {
	// statics holds each distinct instruction with its Addr field in the
	// form addrField gives it.
	statics []isa.Inst
	// idx16 or idx32 (exactly one is non-nil) holds each dynamic
	// instruction's index into statics.
	idx16 []uint16
	idx32 []uint32
	// addrs holds the low halves of the carried addresses in order, plus
	// one zero pad so a Reader may load one address ahead without a bounds
	// branch.
	addrs []uint32
	// marks[k] is the number of addresses carried before instruction
	// k<<markShift, for every such instruction up to the trace's length.
	marks []int
}

// addrField returns the Addr field of the static for an instruction with
// address addr: 0 when it carries none, and otherwise the address's high
// half over 32 one bits. A Reader then fills an address from its low half
// with one OR and one AND, and advances the address cursor by the field's
// lowest bit.
func addrField(addr uint64) uint64 {
	if addr == 0 {
		return 0
	}
	return addr | 0xffff_ffff
}

// Trace is an immutable dynamic instruction stream.
type Trace struct {
	name string
	n    int
	code

	fpOnce sync.Once
	fp     uint64
}

// New encodes the given instructions as a trace. Any instruction slice
// round-trips exactly, well-formed or not (Validate checks form); the slice
// is not retained.
func New(name string, insts []isa.Inst) *Trace {
	e := NewEncoder(len(insts))
	for i := range insts {
		e.Add(&insts[i])
	}
	return e.Trace(name)
}

// Name reports the trace's benchmark name.
func (t *Trace) Name() string { return t.name }

// Len reports the number of dynamic instructions.
func (t *Trace) Len() int { return t.n }

// Bytes reports the resident size of the trace's encoding: the static
// table, the index and address streams, and the marks. A prefix shares its
// parent's encoding and reports the same size.
func (t *Trace) Bytes() int64 {
	return int64(len(t.statics))*int64(unsafe.Sizeof(isa.Inst{})) +
		int64(len(t.idx16))*2 + int64(len(t.idx32))*4 +
		int64(len(t.addrs))*4 + int64(len(t.marks))*int64(unsafe.Sizeof(int(0)))
}

// At decodes instruction i into a fresh value on every call, at a cost of up
// to 256 decodes. It serves callers that want single instructions out of
// order; everything that reads a trace in order uses a Reader.
func (t *Trace) At(i int64) *isa.Inst {
	if i < 0 || i >= int64(t.n) {
		panic(fmt.Sprintf("trace %s: index %d of %d", t.name, i, t.n))
	}
	r := t.Reader(int(i))
	in := new(isa.Inst)
	r.Next(in)
	return in
}

// Prefix returns the trace of the first n instructions, sharing the backing
// store. The prefix has its own name (and therefore fingerprint), since it
// is a different instruction stream. The fuzz harness uses prefixes to map
// shrinking inputs onto shrinking traces without regenerating them.
func (t *Trace) Prefix(n int) *Trace {
	if n < 0 || n > t.n {
		panic(fmt.Sprintf("trace %s: prefix %d of %d", t.name, n, t.n))
	}
	if n == t.n {
		return t
	}
	return &Trace{name: fmt.Sprintf("%s[:%d]", t.name, n), n: n, code: t.code}
}

// Reader reads a trace's instructions in order. It holds its trace's
// streams as fields of its own rather than an embedded code, which keeps
// Next within the compiler's inlining budget.
type Reader struct {
	statics  []isa.Inst
	idx16    []uint16
	idx32    []uint32
	addrs    []uint32
	pos, end int // next instruction, trace length
	apos     int // next address
}

// Reader returns a reader positioned at instruction from, 0 <= from <= Len.
func (t *Trace) Reader(from int) Reader {
	if from < 0 || from > t.n {
		panic(fmt.Sprintf("trace %s: reader at %d of %d", t.name, from, t.n))
	}
	k := from >> markShift
	r := Reader{
		statics: t.statics, idx16: t.idx16, idx32: t.idx32, addrs: t.addrs,
		pos: k << markShift, end: t.n, apos: t.marks[k],
	}
	var skip isa.Inst
	for r.pos < from {
		r.Next(&skip)
	}
	return r
}

// Next decodes the next instruction into in and reports true, or reports
// false, leaving in untouched, at the end of the trace.
func (r *Reader) Next(in *isa.Inst) bool {
	if r.pos >= r.end {
		return false
	}
	var s uint32
	if r.idx16 != nil {
		s = uint32(r.idx16[r.pos])
	} else {
		s = r.idx32[r.pos]
	}
	r.pos++
	st := &r.statics[s]
	// Branch-free address fill (see addrField): a static's Addr is 0, or
	// the high half over 32 one bits, and the zero pad keeps the read in
	// bounds.
	a := st.Addr
	*in = *st
	in.Addr = (uint64(r.addrs[r.apos]) | 0xffff_ffff_0000_0000) & a
	r.apos += int(a & 1)
	return true
}

// Encoder builds a trace one instruction at a time. Finding an
// instruction's static is one probe of an open-addressing table that holds
// the keys themselves, so encoding adds little to generating.
type Encoder struct {
	code
	n int
	// table is a linear-probing hash table over the statics whose
	// addresses, if any, lie below 2^32. Its length is a power of two at
	// least twice the number of statics; a key's home slot is the top bits
	// of its hash, 64-shift of them.
	table []slot
	shift uint
	// high finds the statics whose addresses lie at or above 2^32, keyed
	// by the high half too. No generated trace has one.
	high map[highKey]uint32
}

// highKey identifies a static whose addresses lie at or above 2^32: its PC,
// its packed fields and the high half of its addresses.
type highKey struct {
	pc, f uint64
	hi    uint32
}

// slot is one entry of an Encoder's table: a static's PC, and its other
// fields (see fields) packed with its index plus one. key is 0 when the
// slot is empty.
type slot struct {
	pc, key uint64
}

// indexShift places the static index above the packed fields in a slot's
// key, which bounds a trace to 2^30-1 distinct statics.
const indexShift = 34

// fields packs every field of an instruction but the PC and the address
// into 34 bits; the top one records whether it carries an address.
func fields(in *isa.Inst) uint64 {
	f := uint64(in.Src1) | uint64(in.Src2)<<8 | uint64(in.Dst)<<16 | uint64(in.Op)<<24
	if in.Taken {
		f |= 1 << 32
	}
	if in.Addr != 0 {
		f |= 1 << 33
	}
	return f
}

// home returns the table slot where the probe for a static starts: the
// top 64-shift bits of its hash.
func home(pc, f uint64, shift uint) int {
	return int((pc ^ bits.RotateLeft64(f, 32)) * 0x9e3779b97f4a7c15 >> (shift & 63))
}

// NewEncoder returns an encoder with room for n instructions and n/2
// addresses. Generated traces carry 0.05–0.43 addresses per instruction, so
// their streams never grow by copying; one that carries more grows its
// address stream by appending. Trace copies the streams to an exact fit.
func NewEncoder(n int) *Encoder {
	const bits = 10
	e := &Encoder{table: make([]slot, 1<<bits), shift: 64 - bits}
	e.idx16 = make([]uint16, 0, n)
	e.addrs = make([]uint32, 0, n/2+1)
	e.marks = make([]int, 0, n>>markShift+1)
	return e
}

// Len reports the number of instructions added so far.
func (e *Encoder) Len() int { return e.n }

// Add appends one instruction.
func (e *Encoder) Add(in *isa.Inst) {
	if e.n&(1<<markShift-1) == 0 {
		e.marks = append(e.marks, len(e.addrs))
	}
	e.n++
	f := fields(in)
	if in.Addr != 0 {
		e.addrs = append(e.addrs, uint32(in.Addr))
	}
	var i uint32
	if in.Addr>>32 == 0 {
		mask := len(e.table) - 1
		for j := home(in.PC, f, e.shift); ; j = (j + 1) & mask {
			sl := &e.table[j]
			if sl.key == 0 {
				i = e.insert(in, f, j)
				break
			}
			if sl.pc == in.PC && sl.key&(1<<indexShift-1) == f {
				i = uint32(sl.key>>indexShift) - 1
				break
			}
		}
	} else {
		i = e.highStatic(in, f)
	}
	if e.idx16 != nil {
		e.idx16 = append(e.idx16, uint16(i))
	} else {
		e.idx32 = append(e.idx32, i)
	}
}

// insert adds a new static with packed fields f at empty table slot j and
// returns its index, growing the table as needed.
func (e *Encoder) insert(in *isa.Inst, f uint64, j int) uint32 {
	i := e.newStatic(in)
	e.table[j] = slot{pc: in.PC, key: f | uint64(i+1)<<indexShift}
	if 2*len(e.statics) > len(e.table) {
		e.table = make([]slot, 2*len(e.table))
		e.shift--
		mask := len(e.table) - 1
		for k := range e.statics {
			s := &e.statics[k]
			if s.Addr>>32 != 0 {
				continue // found through high, not the table
			}
			f := fields(s)
			j := home(s.PC, f, e.shift)
			for e.table[j].key != 0 {
				j = (j + 1) & mask
			}
			e.table[j] = slot{pc: s.PC, key: f | uint64(k+1)<<indexShift}
		}
	}
	return i
}

// highStatic returns the index of the static for an instruction whose
// address lies at or above 2^32, adding the static if it is new.
func (e *Encoder) highStatic(in *isa.Inst, f uint64) uint32 {
	k := highKey{pc: in.PC, f: f, hi: uint32(in.Addr >> 32)}
	i, ok := e.high[k]
	if !ok {
		if e.high == nil {
			e.high = make(map[highKey]uint32)
		}
		i = e.newStatic(in)
		e.high[k] = i
	}
	return i
}

// newStatic appends in to the statics and returns its index, widening the
// index stream when the statics outgrow two-byte indices.
func (e *Encoder) newStatic(in *isa.Inst) uint32 {
	i := len(e.statics)
	if i == 1<<(64-indexShift)-1 {
		panic("trace: more than 2^30-1 distinct static instructions")
	}
	s := *in
	s.Addr = addrField(in.Addr)
	e.statics = append(e.statics, s)
	if i == 1<<16 {
		e.idx32 = make([]uint32, len(e.idx16), cap(e.idx16))
		for k, v := range e.idx16 {
			e.idx32[k] = uint32(v)
		}
		e.idx16 = nil
	}
	return uint32(i)
}

// Trace finishes the encoding and returns the trace, trimmed to size. The
// encoder must not be used afterwards.
func (e *Encoder) Trace(name string) *Trace {
	if e.n&(1<<markShift-1) == 0 {
		e.marks = append(e.marks, len(e.addrs))
	}
	e.addrs = append(e.addrs, 0)
	n := e.n
	c := code{
		statics: clip(e.statics),
		idx16:   clip(e.idx16),
		idx32:   clip(e.idx32),
		addrs:   clip(e.addrs),
		marks:   clip(e.marks),
	}
	*e = Encoder{}
	return &Trace{name: name, n: n, code: c}
}

// clip returns s in a backing array of exactly its length, so a finished
// trace holds no growth slack.
func clip[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// Validate checks the structural invariants every well-formed trace holds:
// valid op classes, register IDs in range, memory operations carrying
// addresses, and non-memory operations carrying none. Whether an
// instruction holds them depends only on its static fields and on whether
// its address is zero, so the check runs over the static table and decodes
// the stream only to report the first malformed instruction.
func (t *Trace) Validate() error {
	for k := range t.statics {
		if check(&t.statics[k]) != nil {
			return t.validateEach()
		}
	}
	return nil
}

// validateEach checks every instruction in order. A prefix may end before
// the first use of a malformed static, and then it is well formed.
func (t *Trace) validateEach() error {
	r := t.Reader(0)
	var in isa.Inst
	for i := 0; r.Next(&in); i++ {
		if err := check(&in); err != nil {
			return fmt.Errorf("trace %s[%d]: %w", t.name, i, err)
		}
	}
	return nil
}

// check reports the first structural invariant in violates.
func check(in *isa.Inst) error {
	if !in.Op.Valid() {
		return fmt.Errorf("invalid op class %d", in.Op)
	}
	if in.Src1 >= isa.NumRegs || in.Src2 >= isa.NumRegs || in.Dst >= isa.NumRegs {
		return fmt.Errorf("register out of range: %v", *in)
	}
	switch in.Op {
	case isa.OpLoad:
		if in.Addr == 0 {
			return errors.New("load without address")
		}
		if in.Dst == isa.NoReg {
			return errors.New("load without destination")
		}
	case isa.OpStore:
		if in.Addr == 0 {
			return errors.New("store without address")
		}
		if in.Dst != isa.NoReg {
			return errors.New("store with destination")
		}
	case isa.OpBranch:
		if in.Dst != isa.NoReg {
			return errors.New("branch with destination")
		}
		if in.PC == 0 {
			return errors.New("branch without PC")
		}
	default:
		if in.Addr != 0 {
			return fmt.Errorf("%s with address", in.Op)
		}
	}
	return nil
}

// Fingerprint returns a 64-bit content hash over the trace's name, length,
// and every field of every dynamic instruction. Two traces with the same
// fingerprint executed on the same configuration produce the same result,
// which is what makes the fingerprint a sound result-cache key component:
// it captures not just the (benchmark, N) request but the actual generated
// stream, so a change to the workload generator invalidates cached results
// automatically. It is computed once and memoized (traces are immutable).
//
// The hash is defined over the decoded instructions, so the encoding does
// not enter it:
//
//	h = FNV-1a(name), then h = fpStep(h, n)
//	for each instruction in: h = fpStep(h, fpDigest(in) ^ in.Addr*fpMix1)
//	fingerprint = fpFinish(h)
//
// An instruction's digest covers every field but its address, so the loop
// computes it once per static and takes one multiply-rotate step per
// instruction. Each stage is a bijection in each of its inputs, so changing
// any one field of any one instruction, or any one byte of the name, always
// moves the result.
func (t *Trace) Fingerprint() uint64 {
	t.fpOnce.Do(func() {
		h := uint64(fnvOffset)
		for i := 0; i < len(t.name); i++ {
			h = (h ^ uint64(t.name[i])) * fnvPrime
		}
		h = fpStep(h, uint64(t.n))
		tab := make([]fpStatic, len(t.statics))
		for k := range t.statics {
			s := &t.statics[k]
			tab[k] = fpStatic{digest: fpDigest(s), addr: s.Addr}
		}
		if t.idx16 != nil {
			h = fpStream(h, t.idx16[:t.n], tab, t.addrs)
		} else {
			h = fpStream(h, t.idx32[:t.n], tab, t.addrs)
		}
		t.fp = fpFinish(h)
	})
	return t.fp
}

// The fingerprint's constants: FNV-1a's for the name, then odd multipliers
// (the golden ratio's and splitmix64's two) and a rotation.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	fpGolden = 0x9e3779b97f4a7c15
	fpMix1   = 0xbf58476d1ce4e5b9
	fpMix2   = 0x94d049bb133111eb
	fpRot    = 29
)

// fpStatic is a static's fingerprint digest beside its Addr field, which
// fills an instruction's address as in Reader.Next.
type fpStatic struct {
	digest, addr uint64
}

// fpStep folds v into h.
func fpStep(h, v uint64) uint64 {
	return bits.RotateLeft64((h^v)*fpGolden, fpRot)
}

// fpDigest hashes every field of an instruction but its address.
func fpDigest(in *isa.Inst) uint64 {
	f := uint64(in.Src1) | uint64(in.Src2)<<8 | uint64(in.Dst)<<16 | uint64(in.Op)<<24
	if in.Taken {
		f |= 1 << 32
	}
	return (bits.RotateLeft64(in.PC*fpMix2, 32) ^ f) * fpGolden
}

// fpStream folds the instructions with static indices idx into h.
func fpStream[I uint16 | uint32](h uint64, idx []I, tab []fpStatic, addrs []uint32) uint64 {
	apos := 0
	for _, s := range idx {
		e := &tab[s]
		a := (uint64(addrs[apos]) | 0xffff_ffff_0000_0000) & e.addr
		apos += int(e.addr & 1)
		h = fpStep(h, e.digest^a*fpMix1)
	}
	return h
}

// fpFinish is splitmix64's finalizer, which spreads every bit of h over
// the result.
func fpFinish(h uint64) uint64 {
	h = (h ^ h>>30) * fpMix1
	h = (h ^ h>>27) * fpMix2
	return h ^ h>>31
}

// Mix is the per-class instruction count of a trace.
type Mix struct {
	Counts [isa.NumOpClasses]uint64
	Total  uint64
}

// Fraction reports the share of the class in the trace.
func (m Mix) Fraction(op isa.OpClass) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Counts[op]) / float64(m.Total)
}

func (m Mix) String() string {
	s := ""
	for op := isa.OpClass(0); int(op) < isa.NumOpClasses; op++ {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%.1f%%", op, 100*m.Fraction(op))
	}
	return s
}

// Mix computes the instruction-class mix.
func (t *Trace) Mix() Mix {
	var m Mix
	r := t.Reader(0)
	var in isa.Inst
	for r.Next(&in) {
		m.Counts[in.Op]++
	}
	m.Total = uint64(t.n)
	return m
}

// Footprint reports the number of distinct cache blocks of the given size
// touched by the trace's memory operations, in bytes.
func (t *Trace) Footprint(blockBytes int) uint64 {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic(fmt.Sprintf("trace: bad block size %d", blockBytes))
	}
	blocks := make(map[uint64]struct{})
	shift := uint(bits.TrailingZeros(uint(blockBytes)))
	r := t.Reader(0)
	var in isa.Inst
	for r.Next(&in) {
		if in.IsMem() {
			blocks[in.Addr>>shift] = struct{}{}
		}
	}
	return uint64(len(blocks)) * uint64(blockBytes)
}
