package cmdutil

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// Regression: CacheFlags used to register on the global default FlagSet, so
// a second call — two drivers linked into one binary, or a test importing
// the flags twice — panicked with "flag redefined". With an explicit
// FlagSet, any number of independent registrations coexist.
func TestCacheFlagsIndependentFlagSets(t *testing.T) {
	for i := 0; i < 3; i++ {
		fs := flag.NewFlagSet("driver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		open := CacheFlags(fs)
		if fs.Lookup("cache.dir") == nil || fs.Lookup("cache.off") == nil {
			t.Fatalf("call %d: cache flags not registered", i)
		}
		if open == nil {
			t.Fatalf("call %d: nil opener", i)
		}
	}
}

func TestCacheFlagsOpener(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")

	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	open := CacheFlags(fs)
	if err := fs.Parse([]string{"-cache.dir", dir}); err != nil {
		t.Fatal(err)
	}
	c := open()
	if c == nil {
		t.Fatal("opener returned nil with a writable directory")
	}
	if c.Dir() != dir {
		t.Errorf("cache dir %q, want %q", c.Dir(), dir)
	}
	var stats strings.Builder
	PrintCacheStats(&stats, c) // zero traffic: must not print or panic
	PrintCacheStats(&stats, nil)
	if stats.Len() != 0 {
		t.Errorf("cache stats printed for no traffic: %q", stats.String())
	}

	fs = flag.NewFlagSet("driver", flag.ContinueOnError)
	open = CacheFlags(fs)
	if err := fs.Parse([]string{"-cache.off"}); err != nil {
		t.Fatal(err)
	}
	if open() != nil {
		t.Error("opener returned a cache despite -cache.off")
	}
}

// -cache.mem must reach the opened cache's in-memory LRU tier: with the
// tier capped at one entry, looking two stored entries back up cannot be
// served from memory alone.
func TestCacheFlagsMemEntries(t *testing.T) {
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	open := CacheFlags(fs)
	if err := fs.Parse([]string{"-cache.dir", t.TempDir(), "-cache.mem", "1"}); err != nil {
		t.Fatal(err)
	}
	c := open()
	if c == nil {
		t.Fatal("opener returned nil")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	var v int
	if !c.Get("a", &v) || !c.Get("b", &v) {
		t.Fatal("stored entries not found")
	}
	st := c.Stats()
	if st.Hits != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MemHits >= 2 {
		t.Errorf("both hits served from a 1-entry memory tier: %+v", st)
	}
}

// CacheFlags(nil) must fall back to the global default FlagSet — the
// behaviour every cmd/ driver relies on. Registered at most once per
// process, so this is the only test touching flag.CommandLine.
func TestCacheFlagsDefaultsToCommandLine(t *testing.T) {
	if flag.CommandLine.Lookup("cache.dir") != nil {
		t.Skip("cache flags already on flag.CommandLine")
	}
	_ = CacheFlags(nil)
	if flag.CommandLine.Lookup("cache.dir") == nil {
		t.Error("CacheFlags(nil) did not register on flag.CommandLine")
	}
}

func TestObsFlags(t *testing.T) {
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	o := ObsFlags(fs)
	if o.Wanted() {
		t.Error("zero ObsSet reports Wanted")
	}
	err := fs.Parse([]string{"-timeline", "t.json", "-metrics", "m.json", "-pprof", "localhost:0"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Timeline != "t.json" || o.Metrics != "m.json" || o.Pprof != "localhost:0" {
		t.Errorf("parsed %+v", o)
	}
	if !o.Wanted() {
		t.Error("populated ObsSet reports not Wanted")
	}

	// A second driver registering the same flags on its own set must not
	// collide (the same bug class as CacheFlags).
	fs2 := flag.NewFlagSet("other", flag.ContinueOnError)
	if o2 := ObsFlags(fs2); o2 == nil {
		t.Fatal("second ObsFlags registration failed")
	}
}

func TestObsSetWriters(t *testing.T) {
	var o ObsSet
	if err := o.WriteMetricsJSON(map[string]int{"x": 1}); err != nil {
		t.Errorf("unset -metrics must be a no-op, got %v", err)
	}
	if err := o.WriteTimeline(func(io.Writer) error { t.Fatal("writer called"); return nil }); err != nil {
		t.Errorf("unset -timeline must be a no-op, got %v", err)
	}
	o.Metrics = filepath.Join(t.TempDir(), "m.json")
	o.Timeline = filepath.Join(t.TempDir(), "t.json")
	if err := o.WriteMetricsJSON(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	wrote := false
	if err := o.WriteTimeline(func(w io.Writer) error {
		wrote = true
		_, err := w.Write([]byte("[]"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Error("timeline writer not invoked")
	}
}

func TestPublishIdempotent(t *testing.T) {
	Publish("cmdutil.test.var", func() any { return 1 })
	Publish("cmdutil.test.var", func() any { return 2 }) // must not panic
}
