// Package cmdutil holds the flag conventions shared by the commands under
// cmd/, so the `-cache.*` flags and the observability flags
// `-timeline`/`-metrics`/`-pprof` behave identically across figures, spec
// and serve (which takes only `-pprof`).
package cmdutil

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"archcontest/internal/resultcache"
)

// SignalContext returns a context cancelled on SIGINT/SIGTERM, the shared
// driver convention: the first signal requests a cooperative stop (the
// engines exit at their next context poll, caches and artifact files stay
// whole), a second signal kills the process through Go's default handler
// because stop() has already restored it.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, func() { stop() }) // restore default handling once cancelled
	return ctx, stop
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory plus an atomic rename, so an interrupted writer never leaves a
// truncated artifact behind: readers observe either the old content or the
// complete new content, nothing in between.
func WriteFileAtomic(path string, data []byte, perm fs.FileMode) error {
	return writeAtomic(path, perm, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// WriteAtomic streams content through write into a temp file in path's
// directory and atomically renames it over path on success. On any error
// (including a write aborted mid-stream by cancellation) the temp file is
// removed and path is untouched.
func WriteAtomic(path string, write func(io.Writer) error) error {
	return writeAtomic(path, 0o644, func(f *os.File) error { return write(f) })
}

func writeAtomic(path string, perm fs.FileMode, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(perm); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// CacheFlags registers -cache.dir, -cache.off and -cache.mem on fs
// (flag.CommandLine when nil) and returns an opener to call after parsing.
// The opener returns nil (caching disabled) when -cache.off is set or the
// directory cannot be created; a nil *resultcache.Cache is a valid
// always-miss cache, so callers pass it through unconditionally.
//
// Taking the FlagSet explicitly is what makes the function reusable: the
// old form registered on the global default set, so a second call — two
// drivers linked into one test binary, or a test exercising the flags
// twice — panicked on duplicate flag registration.
func CacheFlags(fs *flag.FlagSet) func() *resultcache.Cache {
	if fs == nil {
		fs = flag.CommandLine
	}
	dir := fs.String("cache.dir", resultcache.DefaultDir, "persistent result cache directory")
	off := fs.Bool("cache.off", false, "disable the persistent result cache")
	mem := fs.Int("cache.mem", 0, "in-memory cache tier size in entries (0 = default); campaign-scale runs touch more design points than the default LRU holds")
	remote := fs.String("cache.remote", "", "remote blob store base URL (a serve node started with -cache.serve); overrides -cache.dir")
	return func() *resultcache.Cache {
		if *off {
			return nil
		}
		if *remote != "" {
			return resultcache.New(resultcache.NewHTTPStore(*remote, nil), resultcache.Options{MemEntries: *mem})
		}
		c, err := resultcache.Open(*dir, resultcache.Options{MemEntries: *mem})
		if err != nil {
			log.Printf("result cache disabled: %v", err)
			return nil
		}
		return c
	}
}

// PrintCacheStats reports a cache's traffic on w (no-op for nil).
func PrintCacheStats(w io.Writer, c *resultcache.Cache) {
	if c == nil {
		return
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		return
	}
	fmt.Fprintf(w, "result cache %s: %d hits (%d mem), %d misses, %d stored, %d corrupt\n",
		c.Dir(), st.Hits, st.MemHits, st.Misses, st.Stores, st.Corrupt)
}

// ObsSet holds the observability flag values shared by every driver.
type ObsSet struct {
	// Timeline is the -timeline path: a Chrome trace_event JSON of a
	// recorded run or contest (cmd/spec) or of the campaign's artifact
	// schedule (cmd/figures, cmd/spec), loadable in chrome://tracing and
	// Perfetto.
	Timeline string
	// Metrics is the -metrics path: the run's aggregated observability
	// metrics, or the campaign's self-observability counters, as JSON.
	Metrics string
	// Pprof is the -pprof listen address; empty leaves the listener off.
	Pprof string
}

// ObsFlags registers -timeline, -metrics and -pprof on fs (flag.CommandLine
// when nil) and returns the value set to read after parsing.
func ObsFlags(fs *flag.FlagSet) *ObsSet {
	if fs == nil {
		fs = flag.CommandLine
	}
	o := &ObsSet{}
	fs.StringVar(&o.Timeline, "timeline", "", "write a Chrome trace_event timeline to this path")
	fs.StringVar(&o.Metrics, "metrics", "", "write observability metrics JSON to this path")
	fs.StringVar(&o.Pprof, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	return o
}

// Wanted reports whether any observability output was requested.
func (o *ObsSet) Wanted() bool {
	return o.Timeline != "" || o.Metrics != ""
}

// StartPprof starts the -pprof listener in the background (no-op when the
// flag is unset). The default mux serves /debug/pprof (profiles) and
// /debug/vars (every expvar published with Publish).
func (o *ObsSet) StartPprof() {
	if o.Pprof == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(o.Pprof, nil); err != nil {
			log.Printf("pprof listener %s: %v", o.Pprof, err)
		}
	}()
	log.Printf("pprof/expvar listening on http://%s/debug/pprof and /debug/vars", o.Pprof)
}

// WriteMetricsJSON writes v as indented JSON to the -metrics path (no-op
// when unset).
func (o *ObsSet) WriteMetricsJSON(v any) error {
	if o.Metrics == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(o.Metrics, append(data, '\n'), 0o644)
}

// WriteTimeline streams a timeline through write to the -timeline path
// (no-op when unset). The write is atomic: an interrupt mid-stream leaves
// no partial timeline file.
func (o *ObsSet) WriteTimeline(write func(io.Writer) error) error {
	if o.Timeline == "" {
		return nil
	}
	return WriteAtomic(o.Timeline, write)
}

// Publish registers an expvar under name computing its value from f on
// every read. Republishing an existing name is a no-op (expvar itself
// panics on duplicates), so drivers may call it unconditionally.
func Publish(name string, f func() any) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(f))
}
