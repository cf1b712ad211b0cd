package pipeline

// Read-only inspection of a core's microarchitectural state, for the
// invariant checker (internal/invariant). Everything here is accessor-only:
// the checker sees the window, the issue wake lists, and the occupancy
// counters exactly as the engine maintains them, so it can cross-check them
// against a naive reconstruction without being able to perturb the run.
// The accessors reconstruct entry-shaped views from the structure-of-arrays
// window (see pipeline.go "Data layout"): a ready "queue" view is built by
// scanning the ready bitmap in window order, and waiter lists by walking
// the dependence links in the depHead/depNext field arrays.

import "archcontest/internal/isa"

// EntryView is a read-only projection of one in-flight window entry,
// gathered from the per-field window arrays. CompleteCycle and ValueReady
// are meaningful only when Completed is set (the arrays are not reset at
// fetch; completion writes them).
type EntryView struct {
	Seq           int64
	DispatchReady int64
	Prod1, Prod2  int64 // in-window producer seqs, NoSeq if none
	StoreDep      int64 // forwarding store, NoSeq if none
	CompleteCycle int64
	ValueReady    int64
	Completed     bool
	InIQ          bool
	Injected      bool
	Mispredicted  bool
	Inst          isa.Inst // the instruction as decoded at fetch
}

// NoSeq is the absent-sequence marker used by EntryView link fields.
const NoSeq = noSeq

// Inspector is a read-only view of a Core.
type Inspector struct{ c *Core }

// Inspect returns the core's read-only inspector.
func (c *Core) Inspect() Inspector { return Inspector{c: c} }

// HeadSeq is the oldest in-flight instruction (the next to retire).
func (i Inspector) HeadSeq() int64 { return i.c.headSeq }

// DispSeq is the next instruction to dispatch into the window.
func (i Inspector) DispSeq() int64 { return i.c.dispSeq }

// TailSeq is the next instruction to fetch (the core's fetch counter).
func (i Inspector) TailSeq() int64 { return i.c.tailSeq }

// RingSize is the structural window capacity: the bound fetch enforces on
// tailSeq-headSeq. The physical slot ring is the next power of two above
// it.
func (i Inspector) RingSize() int64 { return i.c.windowCap }

// IQCount is the engine's issue-queue occupancy counter.
func (i Inspector) IQCount() int { return i.c.iqCount }

// LSQCount is the engine's load/store-queue occupancy counter.
func (i Inspector) LSQCount() int { return i.c.lsq }

// PendingBranch is the mispredicted branch gating fetch, NoSeq if none.
func (i Inspector) PendingBranch() int64 { return i.c.pendingBranch }

// Entry returns the window entry for seq. ok is false when the ring slot
// no longer holds that sequence (the slot was reused by a younger fetch,
// which for an in-window seq is an aliasing bug the checker reports).
func (i Inspector) Entry(seq int64) (EntryView, bool) {
	c := i.c
	slot := seq & c.ringMask
	if c.seqs[slot] != seq {
		return EntryView{}, false
	}
	fl := c.flags[slot]
	return EntryView{
		Seq:           seq,
		DispatchReady: c.dispatchReady[slot],
		Prod1:         c.prod1[slot],
		Prod2:         c.prod2[slot],
		StoreDep:      c.storeDep[slot],
		CompleteCycle: c.completeCycle[slot],
		ValueReady:    c.valueReady[slot],
		Completed:     fl&flagCompleted != 0,
		InIQ:          c.validBM.test(slot),
		Injected:      fl&flagInjected != 0,
		Mispredicted:  fl&flagMispredicted != 0,
		Inst:          c.insts[slot],
	}, true
}

// ReadySeqs appends the sequence numbers currently ready to buf and
// returns it. The ready bitmap is maintained eagerly, so every reported
// entry must be a live issue-queue entry.
func (i Inspector) ReadySeqs(buf []int64) []int64 {
	c := i.c
	headSlot := c.headSeq & c.ringMask
	for slot := c.readyBM.next(0); slot >= 0; slot = c.readyBM.next(slot + 1) {
		buf = append(buf, c.headSeq+((slot-headSlot)&c.ringMask))
	}
	return buf
}

// WakeSeqs appends every scheduled wake-up — timing-wheel entries plus the
// overflow heap — to seqs (its sequence number) and dues (the cycle it
// falls due), and returns both. Overflow entries left behind by an
// early-resolved branch are reported too; the engine drops them when due.
func (i Inspector) WakeSeqs(seqs, dues []int64) ([]int64, []int64) {
	c := i.c
	for _, w := range c.wakeQ {
		seqs, dues = append(seqs, w.seq), append(dues, w.at)
	}
	for b := c.wheelBM.next(0); b >= 0; b = c.wheelBM.next(b + 1) {
		for h := c.bucketHead[b]; h != 0; h = c.wheelNext[h-1] {
			seqs, dues = append(seqs, c.seqs[h-1]), append(dues, c.wakeAt[h-1])
		}
	}
	return seqs, dues
}

// Waiters appends the sequence numbers parked on seq's dependent wake list
// to buf and returns it.
func (i Inspector) Waiters(seq int64, buf []int64) []int64 {
	c := i.c
	slot := seq & c.ringMask
	if c.seqs[slot] != seq {
		return buf
	}
	for s := c.depHead[slot]; s != noSeq; s = c.depNext[s&c.ringMask] {
		buf = append(buf, s)
	}
	return buf
}

// Blocker reports seq's first incomplete in-window dependence (NoSeq when
// every dependence is complete), exactly as the wake lists compute it.
func (i Inspector) Blocker(seq int64) int64 { return i.c.blockerOf(seq & i.c.ringMask) }

// ReadyAt reports the earliest cycle seq may issue once unblocked, exactly
// as the wake lists compute it.
func (i Inspector) ReadyAt(seq int64) int64 { return i.c.readyAtOf(seq & i.c.ringMask) }

// RetiredCount is the number of retired instructions.
func (i Inspector) RetiredCount() int64 { return i.c.stats.Retired }
