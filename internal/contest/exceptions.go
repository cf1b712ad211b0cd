package contest

import "archcontest/internal/ticks"

// The paper's Section 4.3: a synchronous exception (error, TLB miss,
// system call) is detected by all contesting cores, though not at the same
// time. The paper advocates a redundant-thread-aware *parallelized*
// exception handler: a core reaching the exception increments a semaphore
// and sleeps until the last core arrives, then the handlers coordinate and
// service the exception on all cores — avoiding the older
// terminate-and-refork approach, which kills the threads on the
// non-designated cores, services the exception on one, and reforks the
// rest (including TLB preloading), at a much higher cost.
//
// exceptionCoordinator models both. Every ExceptionEvery-th instruction is
// an excepting instruction; no core may retire it before every active core
// has reached it (the semaphore rendezvous) and the handler has run.

// exceptionCoordinator gates retirement at exception instructions.
type exceptionCoordinator struct {
	sys      *System
	interval int64
	// handler is the service time once all cores have arrived.
	handler ticks.Duration
	// refork, when set, models terminate-and-refork: the non-designated
	// cores pay an additional refork penalty each.
	refork ticks.Duration
	// warmup is the per-reforked-core state-transfer interval charged on
	// top of refork (Options.ReforkWarmupNs).
	warmup ticks.Duration
	// coldPred and coldCaches, when set, destroy the microarchitectural
	// state of the non-designated cores at each kill-refork barrier: the
	// reforked threads restart with untrained predictors / empty caches.
	coldPred   bool
	coldCaches bool

	barrier   int64 // instruction index of the exception being coordinated
	releaseAt ticks.Time
	pending   bool
	// transfer accumulates the warm-up time charged across barriers, for
	// Result.StateTransfer.
	transfer ticks.Duration
}

// isException reports whether instruction idx raises a synchronous
// exception.
func (x *exceptionCoordinator) isException(idx int64) bool {
	return x.interval > 0 && (idx+1)%x.interval == 0
}

// gate implements pipeline.Options.RetireGate for core `core`.
func (x *exceptionCoordinator) gate(core int, idx int64, at ticks.Time) bool {
	if !x.isException(idx) {
		return true
	}
	// Complete the current barrier once every active core has retired its
	// excepting instruction.
	if x.pending && x.allReached(x.barrier+1) {
		x.pending = false
	}
	if x.pending {
		if idx != x.barrier {
			// Only an already-serviced exception may pass while another is
			// being coordinated (a saturated straggler catching up).
			return idx < x.barrier
		}
		return at >= x.releaseAt // servicing in progress
	}
	if idx <= x.barrier {
		return true // already serviced
	}
	if !x.allReached(idx) {
		// The handler on this core increments the semaphore and sleeps
		// until the last active core arrives.
		return false
	}
	// Last arrival: wake all handlers and service the exception.
	x.barrier = idx
	x.pending = true
	cost := x.handler
	if x.refork > 0 || x.warmup > 0 {
		// Terminate-and-refork instead: the designated core services the
		// exception while every other core's thread is killed and reforked,
		// each paying the refork penalty plus the state-transfer warm-up.
		reforked := ticks.Duration(x.activeCores() - 1)
		cost += (x.refork + x.warmup) * reforked
		x.transfer += x.warmup * reforked
	}
	if x.coldPred || x.coldCaches {
		x.coldRefork()
	}
	x.releaseAt = at.Add(cost)
	return at >= x.releaseAt
}

// coldRefork destroys the microarchitectural state of every active core
// except the designated one — the current leader — at barrier formation.
// Barrier formation happens at the same global point in both schedulers
// (every progressing core cycle runs at the same cycle, in the same order,
// with the same inputs in either), and the leader identity is maintained
// identically, so the resets land on the same cores at the same point of
// the execution and the two schedulers stay bit-identical.
func (x *exceptionCoordinator) coldRefork() {
	designated := x.sys.leader
	for i, c := range x.sys.cores {
		if i == designated || x.sys.IsSaturated(i) {
			continue
		}
		if x.coldPred {
			c.ResetPredictor()
		}
		if x.coldCaches {
			c.InvalidateCaches()
		}
	}
}

// allReached reports whether every active (non-saturated) core has retired
// everything before idx — i.e. the semaphore has reached the active count.
func (x *exceptionCoordinator) allReached(idx int64) bool {
	for i, c := range x.sys.cores {
		if x.sys.IsSaturated(i) {
			continue
		}
		if c.Retired() < idx {
			return false
		}
	}
	return true
}

func (x *exceptionCoordinator) activeCores() int {
	n := 0
	for i := range x.sys.cores {
		if !x.sys.IsSaturated(i) {
			n++
		}
	}
	return n
}
