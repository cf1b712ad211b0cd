package cache

import (
	"fmt"

	"archcontest/internal/registry"
)

// Replacer is the replacement-policy half of the cache SPI. A cache level
// with a non-default policy delegates its victim choice to a Replacer; the
// cache itself keeps owning tags, validity, and dirty state. Way indices
// are relative to the set.
//
// The contract mirrors the predictor SPI: a Replacer must be deterministic
// (same call sequence, same victims), Reset must restore the cold state,
// and Touch/Insert/Victim must not allocate — they run inside the
// simulator's per-access hot path.
//
// The true-LRU default is NOT expressed through this interface: when a
// Config names no policy (or names "lru"), the cache keeps its fused
// single-pass probe with the stamp-based LRU victim choice, bit-identical
// to the pre-SPI engine. The interface path is taken only for non-default
// policies.
type Replacer interface {
	// Touch records a hit on way w of the set.
	Touch(set, way int)
	// Insert records a fill into way w of the set (after Victim chose it,
	// or after the cache picked an invalid way directly).
	Insert(set, way int)
	// Victim chooses the way to evict from a full set.
	Victim(set int) int
	// Reset restores the cold (post-construction) state.
	Reset()
}

// ReplacerFactory builds a replacement policy for a level's geometry.
// params is the opaque Config.ReplParams string.
type ReplacerFactory func(sets, assoc int, params string) (Replacer, error)

// replacers holds every replacement policy but the true-LRU default,
// which "" and "lru" select and the cache resolves itself (the fused path).
var replacers = registry.New[Config, Replacer]("cache", "replacement policy", "lru")

// RegisterReplacer adds a replacement policy under the given name. The
// names "" and "lru" denote the built-in true-LRU fast path and cannot be
// registered over.
func RegisterReplacer(name string, f ReplacerFactory) error {
	var build func(Config) (Replacer, error)
	if f != nil { // a nil factory stays nil, for the table to reject
		build = func(c Config) (Replacer, error) { return f(c.Sets, c.Assoc, c.ReplParams) }
	}
	return replacers.Register(name, build, nil)
}

// ReplacerNames lists every selectable replacement policy, "lru" (the
// default) included, in sorted order.
func ReplacerNames() []string { return replacers.Names() }

// randomReplacer evicts a pseudo-random way. The xorshift stream is seeded
// from the geometry, so victim sequences are a pure function of the level's
// shape and the access sequence — deterministic across runs and processes.
type randomReplacer struct {
	assoc uint64
	seed  uint64
	x     uint64
}

func newRandomReplacer(c Config) (Replacer, error) {
	seed := uint64(c.Sets)*0x9e3779b97f4a7c15 + uint64(c.Assoc)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	return &randomReplacer{assoc: uint64(c.Assoc), seed: seed, x: seed}, nil
}

func (r *randomReplacer) Touch(set, way int)  {}
func (r *randomReplacer) Insert(set, way int) {}
func (r *randomReplacer) Victim(set int) int {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return int(r.x % r.assoc)
}
func (r *randomReplacer) Reset() { r.x = r.seed }

// srripReplacer is an SRRIP-style policy (Jaleel et al., ISCA 2010): each
// line carries a 2-bit re-reference prediction value; fills insert at RRPV
// 2 ("long re-reference"), hits promote to 0, and the victim is the first
// way at RRPV 3, aging the whole set when none is.
type srripReplacer struct {
	assoc int
	rrpv  []uint8
}

const srripMax = 3

func newSRRIPReplacer(c Config) (Replacer, error) {
	s := &srripReplacer{assoc: c.Assoc, rrpv: make([]uint8, c.Sets*c.Assoc)}
	s.Reset()
	return s, nil
}

func (s *srripReplacer) Touch(set, way int)  { s.rrpv[set*s.assoc+way] = 0 }
func (s *srripReplacer) Insert(set, way int) { s.rrpv[set*s.assoc+way] = srripMax - 1 }
func (s *srripReplacer) Victim(set int) int {
	base := set * s.assoc
	for {
		for w := 0; w < s.assoc; w++ {
			if s.rrpv[base+w] == srripMax {
				return w
			}
		}
		for w := 0; w < s.assoc; w++ {
			s.rrpv[base+w]++
		}
	}
}
func (s *srripReplacer) Reset() {
	for i := range s.rrpv {
		s.rrpv[i] = srripMax
	}
}

// The built-in policies take no params, so their check is that alone and
// Config.Validate never allocates their state.
func init() {
	noParams := func(c Config) error {
		if c.ReplParams != "" {
			return fmt.Errorf("cache: replacement policy %q takes no params, got %q", c.Replacement, c.ReplParams)
		}
		return nil
	}
	for _, err := range []error{
		replacers.Register("random", newRandomReplacer, noParams),
		replacers.Register("srrip", newSRRIPReplacer, noParams),
	} {
		if err != nil {
			panic(err)
		}
	}
}
