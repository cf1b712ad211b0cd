package cache

import (
	"fmt"
	"strings"
	"testing"
)

// TestNewRejectsBadGeometry is the satellite table test: every malformed
// geometry or unresolvable component name surfaces as a returned error
// (never a panic), from both New and NewHierarchy.
func TestNewRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero sets", cfg(0, 1, 8, 1), "sets"},
		{"non-pow2 sets", cfg(3, 1, 8, 1), "sets"},
		{"negative sets", cfg(-8, 1, 8, 1), "sets"},
		{"zero assoc", cfg(8, 0, 8, 1), "associativity"},
		{"zero block", cfg(8, 1, 0, 1), "block"},
		{"non-pow2 block", cfg(8, 1, 48, 1), "block"},
		{"zero latency", cfg(8, 1, 8, 0), "latency"},
		{"negative latency", cfg(8, 1, 8, -1), "latency"},
		{"unknown policy", Config{Sets: 8, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, Replacement: "no-such"}, "replacement"},
		{"params on lru", Config{Sets: 8, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, ReplParams: "x"}, "params"},
		{"params on named lru", Config{Sets: 8, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, Replacement: "lru", ReplParams: "x"}, "params"},
		{"params on random", Config{Sets: 8, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, Replacement: "random", ReplParams: "x"}, "params"},
	}
	good := cfg(8, 2, 64, 1)
	for _, tc := range cases {
		c, err := New(tc.cfg)
		if err == nil || c != nil {
			t.Errorf("New(%s): accepted (%v, %v)", tc.name, c != nil, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%s): error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, herr := NewHierarchy(tc.cfg, good, 100, WriteThrough); herr == nil {
			t.Errorf("NewHierarchy(L1=%s): accepted", tc.name)
		}
		if _, herr := NewHierarchy(good, tc.cfg, 100, WriteThrough); herr == nil {
			t.Errorf("NewHierarchy(L2=%s): accepted", tc.name)
		}
	}
	if _, err := NewHierarchy(good, good, 0, WriteThrough); err == nil {
		t.Error("NewHierarchy accepted zero memory latency")
	}
}

func TestReplacerRegistry(t *testing.T) {
	names := ReplacerNames()
	for _, want := range []string{"lru", "random", "srrip"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("ReplacerNames() = %v missing %q", names, want)
		}
	}
	factory := func(sets, assoc int, params string) (Replacer, error) { return nil, nil }
	for _, reserved := range []string{"", "lru"} {
		if err := RegisterReplacer(reserved, factory); err == nil {
			t.Errorf("reserved name %q accepted", reserved)
		}
	}
	if err := RegisterReplacer("random", factory); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := RegisterReplacer("repl-test-nil", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

// TestLRUNamesAreDefaultFastPath pins that "" and "lru" build the fused
// fast path (nil Replacer), so naming the default costs nothing.
func TestLRUNamesAreDefaultFastPath(t *testing.T) {
	for _, name := range []string{"", "lru"} {
		c := MustNew(Config{Sets: 16, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, Replacement: name})
		if c.repl != nil {
			t.Errorf("Replacement=%q built a Replacer; want fused LRU", name)
		}
	}
	c := MustNew(Config{Sets: 16, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, Replacement: "srrip"})
	if c.repl == nil {
		t.Error("srrip did not build a Replacer")
	}
}

// replay drives the same access sequence through a cache and returns the
// hit pattern.
func replay(c *Cache, addrs []uint64) []bool {
	hits := make([]bool, len(addrs))
	for i, a := range addrs {
		hits[i], _ = c.Access(a, false)
	}
	return hits
}

func conflictStream(sets, block int, n int) []uint64 {
	// Addresses that all map to set 0 with rotating tags, plus a re-used
	// hot line, so replacement policy decisions matter.
	stride := uint64(sets * block)
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			out = append(out, 0) // hot line
		} else {
			out = append(out, stride*uint64(1+i%7))
		}
	}
	return out
}

func TestReplacerDeterministicAndResetCold(t *testing.T) {
	for _, policy := range []string{"random", "srrip"} {
		cf := Config{Sets: 4, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, Replacement: policy}
		stream := conflictStream(4, 64, 200)
		a, b := MustNew(cf), MustNew(cf)
		ha, hb := replay(a, stream), replay(b, stream)
		for i := range ha {
			if ha[i] != hb[i] {
				t.Fatalf("%s: two instances diverged at access %d", policy, i)
			}
		}
		a.Reset()
		hc := replay(a, stream)
		for i := range ha {
			if ha[i] != hc[i] {
				t.Fatalf("%s: post-Reset replay diverged at access %d", policy, i)
			}
		}
		if a.Stats.Accesses != uint64(len(stream)) {
			t.Fatalf("%s: stats not maintained on replacer path", policy)
		}
	}
}

func TestSRRIPProtectsReusedLine(t *testing.T) {
	// 1-set, 4-way cache: touch the hot line often (RRPV pinned at 0),
	// stream conflicting tags through; the hot line must survive.
	cf := Config{Sets: 1, Assoc: 4, BlockBytes: 64, LatencyCycles: 1, Replacement: "srrip"}
	c := MustNew(cf)
	hot := uint64(0)
	c.Access(hot, false)
	for i := 1; i <= 40; i++ {
		c.Access(uint64(i)*64, false)
		if hit, _ := c.Access(hot, false); !hit {
			t.Fatalf("hot line evicted after %d conflicting fills", i)
		}
	}
}

func TestRandomPolicyDiffersFromLRU(t *testing.T) {
	// Sanity that the seam actually changes behaviour: on a conflict-heavy
	// stream, random replacement and true LRU must disagree on at least
	// one access.
	stream := conflictStream(4, 64, 400)
	lru := MustNew(cfg(4, 2, 64, 1))
	rnd := MustNew(Config{Sets: 4, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, Replacement: "random"})
	hl, hr := replay(lru, stream), replay(rnd, stream)
	same := true
	for i := range hl {
		if hl[i] != hr[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("random replacement replayed identically to LRU on a conflict stream")
	}
}

func TestPrefillBypassesDemandStats(t *testing.T) {
	c := MustNew(cfg(16, 2, 64, 1))
	if !c.Prefill(0x1000) {
		t.Fatal("prefill of absent block reported no fill")
	}
	if c.Prefill(0x1000) {
		t.Fatal("prefill of resident block reported a fill")
	}
	if c.Stats.Accesses != 0 || c.Stats.Misses != 0 {
		t.Fatalf("prefill touched demand stats: %+v", c.Stats)
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("prefilled block did not hit")
	}
}

func TestPrefetcherRegistry(t *testing.T) {
	names := PrefetcherNames()
	for _, want := range []string{"nextline", "stride"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("PrefetcherNames() = %v missing %q", names, want)
		}
	}
	factory := func(blockBytes int, params string) (Prefetcher, error) { return nil, nil }
	if err := RegisterPrefetcher("", factory); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterPrefetcher("nextline", factory); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := (PrefetchConfig{Name: "no-such"}).Validate(64); err == nil {
		t.Error("unknown prefetcher validated")
	}
	if err := (PrefetchConfig{Params: "x"}).Validate(64); err == nil {
		t.Error("params without a name validated")
	}
	if err := (PrefetchConfig{}).Validate(64); err != nil {
		t.Errorf("zero config: %v", err)
	}
}

func newTestHierarchy(t *testing.T, pf PrefetchConfig) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(cfg(16, 2, 64, 1), cfg(64, 4, 64, 4), 100, WriteThrough)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AttachPrefetcher(pf); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNextLinePrefetchFillsAhead(t *testing.T) {
	h := newTestHierarchy(t, PrefetchConfig{Name: "nextline"})
	now := int64(0)
	h.Load(0x10000, now) // miss; prefetches 0x10040
	if h.Prefetches == 0 {
		t.Fatal("no prefetch issued on a demand miss")
	}
	if !h.L1.Probe(0x10040) || !h.L2.Probe(0x10040) {
		t.Fatal("next line not resident after prefetch")
	}
	misses := h.L1.Stats.Misses
	if lat := h.Load(0x10040, 1000); lat != int(h.l1Lat) {
		t.Fatalf("prefetched line cost %d cycles, want L1 hit (%d)", lat, h.l1Lat)
	}
	if h.L1.Stats.Misses != misses {
		t.Fatal("prefetched line missed")
	}
}

func TestStridePrefetchLearnsStream(t *testing.T) {
	h := newTestHierarchy(t, PrefetchConfig{Name: "stride"})
	const stride = 128
	var demandMissesLate uint64
	for i := 0; i < 64; i++ {
		before := h.L1.Stats.Misses
		h.Load(uint64(0x40000+i*stride), int64(i*500))
		if i >= 8 && h.L1.Stats.Misses != before {
			demandMissesLate++
		}
	}
	if demandMissesLate != 0 {
		t.Fatalf("stride prefetcher left %d misses in a steady stream", demandMissesLate)
	}
	if h.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
}

// TestNilPrefetcherIsIdentical pins the no-op guarantee: a hierarchy with
// the zero PrefetchConfig replays exactly like one never attached.
func TestNilPrefetcherIsIdentical(t *testing.T) {
	plain, err := NewHierarchy(cfg(16, 2, 64, 1), cfg(64, 4, 64, 4), 100, WriteThrough)
	if err != nil {
		t.Fatal(err)
	}
	attached := newTestHierarchy(t, PrefetchConfig{})
	for i := 0; i < 500; i++ {
		addr := uint64(i*52) % 8192
		now := int64(i * 3)
		if i%5 == 0 {
			if a, b := plain.Store(addr, now), attached.Store(addr, now); a != b {
				t.Fatalf("store %d: %d != %d", i, a, b)
			}
			continue
		}
		if a, b := plain.Load(addr, now), attached.Load(addr, now); a != b {
			t.Fatalf("load %d: %d != %d", i, a, b)
		}
	}
	if attached.Prefetches != 0 {
		t.Fatal("nil prefetcher issued prefetches")
	}
}

// TestValidateAgreesWithConstructor: for every replacement policy and
// prefetcher the registries list, built-in or registered, with empty and
// with bad params, Config.Validate accepts exactly when New succeeds and
// PrefetchConfig.Validate exactly when NewPrefetcher does, with the same
// error.
func TestValidateAgreesWithConstructor(t *testing.T) {
	noParams := func(params string) error {
		if params != "" {
			return fmt.Errorf("takes no params, got %q", params)
		}
		return nil
	}
	for _, err := range []error{
		RegisterReplacer("agree-test", func(sets, assoc int, params string) (Replacer, error) {
			if err := noParams(params); err != nil {
				return nil, err
			}
			return newRandomReplacer(Config{Sets: sets, Assoc: assoc})
		}),
		RegisterReplacer("agree-test-nil", func(int, int, string) (Replacer, error) { return nil, nil }),
		RegisterPrefetcher("agree-test", func(blockBytes int, params string) (Prefetcher, error) {
			if err := noParams(params); err != nil {
				return nil, err
			}
			return &nextLine{block: uint64(blockBytes)}, nil
		}),
		RegisterPrefetcher("agree-test-nil", func(int, string) (Prefetcher, error) { return nil, nil }),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, params := range []string{"", "x"} {
		for _, name := range append([]string{""}, ReplacerNames()...) {
			c := Config{Sets: 16, Assoc: 2, BlockBytes: 64, LatencyCycles: 1, Replacement: name, ReplParams: params}
			_, err := New(c)
			if verr := c.Validate(); fmt.Sprint(verr) != fmt.Sprint(err) {
				t.Errorf("replacement %q, params %q: Validate = %v, New = %v", name, params, verr, err)
			}
		}
		for _, name := range append([]string{""}, PrefetcherNames()...) {
			p := PrefetchConfig{Name: name, Params: params}
			const blockBytes = 64
			_, err := NewPrefetcher(p, blockBytes)
			if verr := p.Validate(blockBytes); fmt.Sprint(verr) != fmt.Sprint(err) {
				t.Errorf("prefetcher %q, params %q: Validate = %v, NewPrefetcher = %v", name, params, verr, err)
			}
		}
	}
}
