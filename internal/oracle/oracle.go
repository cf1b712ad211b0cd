// Package oracle is the in-order differential reference executor of the
// verification subsystem.
//
// The cycle-level core model (internal/pipeline) is a timing model: it
// decides *when* each dynamic instruction retires, never *what* it
// computes. That makes cycle-count goldens blind to a whole class of bugs —
// a window slot aliased by the ring buffer, an instruction retired twice or
// skipped, stores merged out of program order by the synchronizing store
// queue — because those bugs can leave every counter plausible while the
// architectural execution they describe is garbage.
//
// The oracle closes that hole by giving the ISA deterministic value
// semantics and executing every trace strictly in order, one instruction
// per step, with no window, no speculation and no caches: the simplest
// possible machine that is obviously correct. Its outputs — the retired
// instruction sequence, every register value, the program-order store
// stream with data, and a checksum over all of it — are the ground truth
// that differential tests compare every pipeline.Core configuration and
// every contested system against.
//
// Value semantics (fixed forever; changing them invalidates checksums):
//
//   - Registers r1..r63 start as mix(regSeed+r); r0 is the zero register
//     and always reads 0. Memory words start as mix(memSeed+addr).
//   - ALU:  mix(s1 + rotl(s2,17) + opALU)
//   - Mul:  mix(s1 * (s2|1))
//   - Div:  mix(s1 ^ rotl(s2,29) + opDiv)  (no machine divide: the class
//     only matters for timing; the oracle needs a deterministic value)
//   - Load: the last value stored to the address, else the initial word.
//   - Store: writes the value of Src2 (the data register, per the isa
//     conventions) to the address.
//   - Branch: no register effect; the outcome is the trace's Taken bit
//     (branch directions are trace inputs, not computed values).
//
// Every operation, including branches, mixes its (seq, value) pair into a
// running FNV-1a checksum, so two executions agree on the checksum iff they
// retired the same instructions in the same order with the same results.
package oracle

import (
	"fmt"

	"archcontest/internal/isa"
	"archcontest/internal/trace"
)

// Seeds for the initial architectural state. Arbitrary odd constants;
// fixed so that every oracle execution of a trace is bit-identical.
const (
	regSeed = 0x9e3779b97f4a7c15
	memSeed = 0xbf58476d1ce4e5b9
)

// mix is the splitmix64 finalizer: a cheap bijective mixer whose output is
// effectively collision-free over the handful of values any trace produces.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

func rotl(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }

// Result is the architectural outcome of one retired dynamic instruction.
type Result struct {
	// Seq is the instruction's trace index (its retirement number).
	Seq int64
	// Value is the destination register value (zero when the instruction
	// has no destination).
	Value uint64
	// StoreAddr and StoreData describe the memory write of a store.
	StoreAddr, StoreData uint64
	// Taken is the branch outcome (branches only).
	Taken bool
}

// StoreEvent is one program-order memory write.
type StoreEvent struct {
	Seq  int64
	Addr uint64
	Data uint64
}

// Executor executes a trace in order, one instruction per Step.
type Executor struct {
	tr   *trace.Trace
	rd   trace.Reader // positioned at next
	next int64

	regs [isa.NumRegs]uint64
	mem  map[uint64]uint64

	stores   []StoreEvent
	checksum uint64
}

// New builds an executor positioned before the first instruction.
func New(tr *trace.Trace) *Executor {
	e := &Executor{
		tr:       tr,
		rd:       tr.Reader(0),
		mem:      make(map[uint64]uint64),
		checksum: 14695981039346656037, // FNV-1a offset basis
	}
	for r := 1; r < isa.NumRegs; r++ {
		e.regs[r] = mix(regSeed + uint64(r))
	}
	return e
}

// Next reports the index of the next instruction to execute.
func (e *Executor) Next() int64 { return e.next }

// Done reports whether the whole trace has been executed.
func (e *Executor) Done() bool { return e.next >= int64(e.tr.Len()) }

// Reg reads the current architectural value of a register.
func (e *Executor) Reg(r isa.RegID) uint64 {
	if r == isa.NoReg {
		return 0
	}
	return e.regs[r]
}

// Mem reads the current architectural value of a memory word.
func (e *Executor) Mem(addr uint64) uint64 {
	if v, ok := e.mem[addr]; ok {
		return v
	}
	return mix(memSeed + addr)
}

// Stores returns the program-order store stream executed so far. The slice
// aliases internal state and must not be modified.
func (e *Executor) Stores() []StoreEvent { return e.stores }

// Checksum reports the running FNV-1a checksum over every (seq, value,
// outcome) retired so far.
func (e *Executor) Checksum() uint64 { return e.checksum }

func (e *Executor) mixChecksum(v uint64) {
	const prime64 = 1099511628211
	for i := 0; i < 8; i++ {
		e.checksum ^= v & 0xff
		e.checksum *= prime64
		v >>= 8
	}
}

// Step executes the next instruction and returns its architectural result.
// It panics if the trace is already fully executed.
func (e *Executor) Step() Result {
	if e.Done() {
		panic(fmt.Sprintf("oracle: step past the end of %s (%d instructions)", e.tr.Name(), e.tr.Len()))
	}
	var in isa.Inst
	e.rd.Next(&in)
	res := Result{Seq: e.next}
	s1, s2 := e.Reg(in.Src1), e.Reg(in.Src2)
	switch in.Op {
	case isa.OpALU:
		res.Value = mix(s1 + rotl(s2, 17) + uint64(isa.OpALU))
	case isa.OpMul:
		res.Value = mix(s1 * (s2 | 1))
	case isa.OpDiv:
		res.Value = mix(s1 ^ rotl(s2, 29) + uint64(isa.OpDiv))
	case isa.OpLoad:
		res.Value = e.Mem(in.Addr)
	case isa.OpStore:
		res.StoreAddr, res.StoreData = in.Addr, s2
		e.mem[in.Addr] = s2
		e.stores = append(e.stores, StoreEvent{Seq: e.next, Addr: in.Addr, Data: s2})
	case isa.OpBranch:
		res.Taken = in.Taken
	default:
		panic(fmt.Sprintf("oracle: invalid op class %d at %s[%d]", in.Op, e.tr.Name(), e.next))
	}
	if in.HasDst() {
		e.regs[in.Dst] = res.Value
	}
	e.mixChecksum(uint64(res.Seq))
	e.mixChecksum(res.Value)
	e.mixChecksum(res.StoreAddr)
	e.mixChecksum(res.StoreData)
	if res.Taken {
		e.mixChecksum(1)
	} else {
		e.mixChecksum(0)
	}
	e.next++
	return res
}

// Execution is a fully-executed trace: the ground-truth architectural
// outcome every timing model must agree with.
type Execution struct {
	tr      *trace.Trace
	results []Result
	exec    *Executor
}

// Run executes the whole trace and returns its execution.
func Run(tr *trace.Trace) *Execution {
	e := New(tr)
	results := make([]Result, 0, tr.Len())
	for !e.Done() {
		results = append(results, e.Step())
	}
	return &Execution{tr: tr, results: results, exec: e}
}

// Len reports the number of retired instructions.
func (x *Execution) Len() int64 { return int64(len(x.results)) }

// Result returns the architectural result of dynamic instruction seq.
func (x *Execution) Result(seq int64) Result { return x.results[seq] }

// Stores returns the program-order store stream. The slice aliases
// internal state and must not be modified.
func (x *Execution) Stores() []StoreEvent { return x.exec.Stores() }

// Checksum reports the checksum over the complete execution.
func (x *Execution) Checksum() uint64 { return x.exec.Checksum() }

// FinalReg reads a register's final architectural value.
func (x *Execution) FinalReg(r isa.RegID) uint64 { return x.exec.Reg(r) }

// FinalMem reads a memory word's final architectural value.
func (x *Execution) FinalMem(addr uint64) uint64 { return x.exec.Mem(addr) }

// ReplayChecksum computes the checksum an in-order machine would produce
// retiring exactly the given sequence of instruction indices. A timing
// model whose retirement sequence replays to the canonical Checksum has
// retired every instruction exactly once, in program order, with the
// ground-truth architectural results; any skip, duplicate or reorder
// perturbs the replay checksum with overwhelming probability.
func (x *Execution) ReplayChecksum(seqs []int64) (uint64, error) {
	e := New(x.tr)
	for i, seq := range seqs {
		if seq != e.Next() {
			return 0, fmt.Errorf("oracle: replay position %d retires instruction %d, want %d", i, seq, e.Next())
		}
		e.Step()
	}
	return e.Checksum(), nil
}
