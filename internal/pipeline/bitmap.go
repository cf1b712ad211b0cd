package pipeline

import "math/bits"

// slotBitmap is a two-level bitmap over window ring slots: level-0 words
// hold one bit per slot and a summary level holds one bit per level-0
// word, so locating the next set slot costs two TrailingZeros64 scans and
// at most a handful of word loads regardless of window size (the SupraX
// ready-bitmap + count-zeros selection pattern). The engine keeps two of
// these per core: the valid bitmap (slots occupied by a dispatched,
// unissued instruction — the live issue queue) and the ready bitmap (the
// subset whose dependences are all satisfied at or before the current
// cycle). Ready bits are maintained eagerly — set when an entry becomes
// ready, cleared when it issues or leaves the queue early — so every set
// bit is live and issue selection never skips lazily-deleted debris.
type slotBitmap struct {
	words []uint64
	summ  []uint64
}

// newSlotBitmap builds a bitmap over the given power-of-two slot count.
func newSlotBitmap(slots int64) slotBitmap {
	nw := (slots + 63) >> 6
	ns := (nw + 63) >> 6
	back := make([]uint64, nw+ns)
	return slotBitmap{words: back[:nw:nw], summ: back[nw:]}
}

// newSlotBitmapPair builds the valid and ready bitmaps for a ring of the
// given power-of-two slot count, carved from one backing allocation.
func newSlotBitmapPair(slots int64) (valid, ready slotBitmap) {
	nw := (slots + 63) >> 6
	ns := (nw + 63) >> 6
	back := make([]uint64, 2*(nw+ns))
	valid = slotBitmap{words: back[:nw:nw], summ: back[nw : nw+ns : nw+ns]}
	back = back[nw+ns:]
	ready = slotBitmap{words: back[:nw:nw], summ: back[nw:]}
	return valid, ready
}

func (b *slotBitmap) set(slot int64) {
	w := slot >> 6
	b.words[w] |= 1 << (uint(slot) & 63)
	b.summ[w>>6] |= 1 << (uint(w) & 63)
}

func (b *slotBitmap) clear(slot int64) {
	w := slot >> 6
	if b.words[w] &= ^(uint64(1) << (uint(slot) & 63)); b.words[w] == 0 {
		b.summ[w>>6] &^= 1 << (uint(w) & 63)
	}
}

func (b *slotBitmap) test(slot int64) bool {
	return b.words[slot>>6]>>(uint(slot)&63)&1 != 0
}

// next returns the first set slot at or after from, or -1 when none.
func (b *slotBitmap) next(from int64) int64 {
	w := from >> 6
	if w >= int64(len(b.words)) {
		return -1
	}
	if m := b.words[w] >> (uint(from) & 63); m != 0 {
		return from + int64(bits.TrailingZeros64(m))
	}
	// Mask away summary bits for words at or below w, then scan upward.
	sw := w >> 6
	m := b.summ[sw] &^ ((uint64(1)<<(uint(w)&63))<<1 - 1)
	for {
		if m != 0 {
			nw := sw<<6 + int64(bits.TrailingZeros64(m))
			return nw<<6 + int64(bits.TrailingZeros64(b.words[nw]))
		}
		if sw++; sw >= int64(len(b.summ)) {
			return -1
		}
		m = b.summ[sw]
	}
}

// firstFrom returns the first set slot in cyclic order starting at start
// (wrapping past the highest slot back to zero), or -1 when the bitmap is
// empty. Scanning from the window head's slot visits ready entries in
// sequence-number order, which keeps issue selection oldest-first.
func (b *slotBitmap) firstFrom(start int64) int64 {
	if s := b.next(start); s >= 0 {
		return s
	}
	if start == 0 {
		return -1
	}
	return b.next(0)
}
