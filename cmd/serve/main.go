// Command serve is the contest-as-a-service daemon. It runs in two modes:
//
// Node mode (default): a long-running HTTP server that accepts declarative
// scenario specs (internal/spec) as jobs, executes them on a bounded
// worker pool (internal/jobs), and exposes progress snapshots, final
// results with archcontest-obs-v1 metrics, and Chrome/Perfetto timelines.
// With -queue the accept queue is bounded and overload is shed with
// 429/503 + Retry-After; with -cache.serve the node also exports its
// result-cache blob store at /v1/blobs/ for the rest of a fleet.
//
// Coordinator mode (-coord, with -nodes): the cluster facade. Incoming
// specs are sharded across the node set with cache-aware rendezvous
// routing, saturated or dead nodes are routed around, and jobs whose node
// dies mid-run are retried on survivors — every accepted job ends in
// exactly one terminal state.
//
// Both modes serve the same API (JSON throughout):
//
//	POST   /v1/jobs            submit a spec; 202 {"id": ..., ...}
//	GET    /v1/jobs            list all job snapshots
//	GET    /v1/jobs/{id}       one snapshot; ?watch=1 streams NDJSON
//	                           snapshots until the job is terminal, ending
//	                           with a final snapshot that embeds the result
//	GET    /v1/jobs/{id}/result the terminal outcome (409 while running)
//	GET    /v1/jobs/{id}/trace  the recorded Chrome/Perfetto timeline
//	DELETE /v1/jobs/{id}       cancel the job
//	GET    /healthz            liveness, load, and (coordinator) fleet view
//
// On SIGTERM/SIGINT the daemon stops accepting submissions, drains
// in-flight jobs, and exits 0; a second signal hard-cancels everything.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"archcontest/internal/cluster"
	"archcontest/internal/cmdutil"
	"archcontest/internal/jobs"
	"archcontest/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	addr := flag.String("addr", "localhost:8080", "listen address")
	workers := flag.Int("workers", 2, "concurrently executing jobs (node mode)")
	par := flag.Int("par", 0, "per-campaign simulation parallelism (0 = NumCPU)")
	queue := flag.Int("queue", 0, "max queued jobs before submissions are shed with 429 (0 = unbounded)")
	serveCache := flag.Bool("cache.serve", false, "export this node's result-cache blob store at /v1/blobs/")
	coord := flag.Bool("coord", false, "run as the cluster coordinator instead of a node")
	nodesFlag := flag.String("nodes", "", "comma-separated node base URLs (coordinator mode)")
	probe := flag.Duration("probe", 500*time.Millisecond, "node health-probe interval (coordinator mode)")
	drainTimeout := flag.Duration("drain", 10*time.Minute, "max time to drain in-flight jobs on shutdown")
	openCache := cmdutil.CacheFlags(nil)
	var obsFlags cmdutil.ObsSet
	flag.StringVar(&obsFlags.Pprof, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.Parse()
	obsFlags.StartPprof()

	if *coord {
		runCoordinator(*addr, *nodesFlag, *probe, *drainTimeout)
		return
	}

	cache := openCache()
	env := spec.NewEnv(cache)
	env.Parallelism = *par
	runner := jobs.NewRunner(env, *workers)
	opts := cluster.NodeOptions{MaxQueue: *queue, Cache: cache}
	if *serveCache {
		if store := cache.Store(); store != nil {
			opts.Blobs = store
		} else {
			log.Fatal("-cache.serve needs a backed cache (unset -cache.off, or point -cache.dir/-cache.remote somewhere)")
		}
	}
	what := fmt.Sprintf("running jobs (workers=%d queue=%d)", *workers, *queue)
	serve(*addr, what, "hard-cancels in-flight jobs", cluster.NewNode(runner, opts), *drainTimeout, func(ctx context.Context) {
		// The drain timeout or a second signal hard-cancels everything
		// still running and waits briefly for the cancellations to land.
		if err := runner.Drain(ctx); err != nil {
			runner.CancelAll()
			landCtx, cancelLand := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancelLand()
			if err := runner.Drain(landCtx); err != nil {
				log.Fatalf("jobs stuck after hard cancel: %v", err)
			}
		}
		cmdutil.PrintCacheStats(os.Stderr, env.Cache)
		log.Printf("drained, exiting")
	})
}

// serve is the daemon lifecycle of both modes. It listens on addr and
// serves h until the first SIGTERM or SIGINT, then stops accepting HTTP
// traffic and calls drain with a context that ends at drainTimeout or on a
// second signal. what names the daemon in its first log line, and second
// says what a second signal does.
func serve(addr, what, second string, h http.Handler, drainTimeout time.Duration, drain func(context.Context)) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s on http://%s", what, ln.Addr())
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining (a second signal %s)", sig, second)
	case err := <-errc:
		log.Fatal(err)
	}

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelDrain()
	go func() {
		select {
		case sig := <-sigc:
			log.Printf("%v: second signal %s", sig, second)
			cancelDrain()
		case <-drainCtx.Done():
		}
	}()
	go srv.Shutdown(drainCtx)
	drain(drainCtx)
}

// runCoordinator serves the cluster facade over the configured node set
// until a signal, then drains: no new submissions, and the process exits
// only once every accepted job has reached its terminal state (or the
// drain timeout forces the issue).
func runCoordinator(addr, nodesFlag string, probe, drainTimeout time.Duration) {
	var nodes []string
	for _, n := range strings.Split(nodesFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, strings.TrimRight(n, "/"))
		}
	}
	if len(nodes) == 0 {
		log.Fatal("-coord needs -nodes with at least one node URL")
	}
	c := cluster.NewCoordinator(cluster.CoordOptions{Nodes: nodes, ProbeInterval: probe})
	defer c.Close()
	what := fmt.Sprintf("coordinating %d nodes", len(nodes))
	serve(addr, what, "abandons in-flight jobs", c.Handler(), drainTimeout, func(ctx context.Context) {
		if err := c.Drain(ctx); err != nil {
			log.Fatalf("drain incomplete: %v", err)
		}
		st := c.Stats()
		log.Printf("drained, exiting (submits=%d affinity=%d reroutes=%d lost=%d)",
			st.Submits, st.AffinityHits, st.Reroutes, st.Lost)
	})
}
