package cache

import (
	"fmt"

	"archcontest/internal/registry"
)

// Prefetcher is the prefetch half of the cache SPI. The hierarchy calls
// OnAccess once per demand load, after the L1 lookup; the prefetcher
// appends the block-aligned-or-not addresses it wants fetched into buf and
// returns the extended slice. Returning buf unchanged means no prefetch.
// The append-into-caller-scratch shape keeps the hot path allocation-free:
// a conforming prefetcher must not allocate in OnAccess and must be
// deterministic; Reset restores the cold state.
//
// A nil prefetcher (the default — PrefetchConfig zero value) is not a
// degenerate implementation but the absence of the hook: the hierarchy's
// load path is bit-identical to the pre-SPI engine.
type Prefetcher interface {
	OnAccess(addr uint64, miss bool, buf []uint64) []uint64
	Reset()
}

// PrefetcherFactory builds a prefetcher. blockBytes is the L1 line size
// (the stride most prefetchers want to think in); params is the opaque
// PrefetchConfig.Params string.
type PrefetcherFactory func(blockBytes int, params string) (Prefetcher, error)

// PrefetchConfig names a prefetcher and its opaque parameters. The zero
// value selects no prefetching.
type PrefetchConfig struct {
	Name   string `json:",omitempty"`
	Params string `json:",omitempty"`
}

// Validate reports the error NewPrefetcher would return for the config on
// an L1 of blockBytes-byte lines. A built-in prefetcher is checked without
// building it; a registered one can only be checked by building it.
func (p PrefetchConfig) Validate(blockBytes int) error {
	_, err := p.prefetcher(blockBytes, false)
	return err
}

// prefetchArgs is what a prefetcher is built from.
type prefetchArgs struct {
	cfg        PrefetchConfig
	blockBytes int
}

var prefetchers = registry.New[prefetchArgs, Prefetcher]("cache", "prefetcher")

// RegisterPrefetcher adds a prefetcher under the given name. The empty
// name denotes "no prefetcher" and cannot be registered.
func RegisterPrefetcher(name string, f PrefetcherFactory) error {
	var build func(prefetchArgs) (Prefetcher, error)
	if f != nil { // a nil factory stays nil, for the table to reject
		build = func(a prefetchArgs) (Prefetcher, error) { return f(a.blockBytes, a.cfg.Params) }
	}
	return prefetchers.Register(name, build, nil)
}

// PrefetcherNames lists every registered prefetcher in sorted order (the
// no-prefetch default is the empty name and is not listed).
func PrefetcherNames() []string { return prefetchers.Names() }

// NewPrefetcher resolves a PrefetchConfig into a prefetcher instance; the
// zero value resolves to (nil, nil). Exported for replay harnesses (the
// fast model mirrors the hierarchy's prefetch fills) and component tests.
func NewPrefetcher(cfg PrefetchConfig, blockBytes int) (Prefetcher, error) {
	return cfg.prefetcher(blockBytes, true)
}

// prefetcher runs NewPrefetcher's checks on the config and, if build is
// set, builds the prefetcher: nil for the zero config.
func (p PrefetchConfig) prefetcher(blockBytes int, build bool) (Prefetcher, error) {
	args := prefetchArgs{cfg: p, blockBytes: blockBytes}
	switch {
	case p.Name == "":
		if p.Params != "" {
			return nil, fmt.Errorf("cache: prefetch params %q without a prefetcher name", p.Params)
		}
		return nil, nil
	case build:
		return prefetchers.Build(p.Name, args)
	default:
		return nil, prefetchers.Validate(p.Name, args)
	}
}

// nextLine prefetches the sequentially next block on every demand miss —
// the classic one-block-lookahead scheme.
type nextLine struct {
	block uint64
}

func newNextLine(a prefetchArgs) (Prefetcher, error) {
	return &nextLine{block: uint64(a.blockBytes)}, nil
}

func (n *nextLine) OnAccess(addr uint64, miss bool, buf []uint64) []uint64 {
	if miss {
		buf = append(buf, addr+n.block)
	}
	return buf
}
func (n *nextLine) Reset() {}

// stride is a single-stream stride detector: it confirms a stride after
// two consecutive equal deltas and then runs one prefetch ahead of the
// stream. The cache level sees no PC, so this is the PC-less variant; a
// PC-indexed table is exactly what the SPI exists to let third parties
// bring.
type stride struct {
	last      uint64
	lastDelta int64
	confirmed bool
	primed    bool
}

func newStride(prefetchArgs) (Prefetcher, error) { return &stride{}, nil }

func (s *stride) OnAccess(addr uint64, miss bool, buf []uint64) []uint64 {
	if s.primed {
		delta := int64(addr - s.last)
		s.confirmed = delta != 0 && delta == s.lastDelta
		s.lastDelta = delta
	}
	s.last = addr
	s.primed = true
	if s.confirmed {
		buf = append(buf, addr+uint64(s.lastDelta))
	}
	return buf
}

func (s *stride) Reset() { *s = stride{} }

// The built-in prefetchers take no params, so their check is that alone.
func init() {
	noParams := func(a prefetchArgs) error {
		if a.cfg.Params != "" {
			return fmt.Errorf("cache: prefetcher %q takes no params, got %q", a.cfg.Name, a.cfg.Params)
		}
		return nil
	}
	for _, err := range []error{
		prefetchers.Register("nextline", newNextLine, noParams),
		prefetchers.Register("stride", newStride, noParams),
	} {
		if err != nil {
			panic(err)
		}
	}
}
