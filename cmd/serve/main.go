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
	srv := &http.Server{Addr: *addr, Handler: cluster.NewNode(runner, opts)}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s (workers=%d queue=%d)", ln.Addr(), *workers, *queue)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining (second signal hard-cancels)", sig)
	case err := <-errc:
		log.Fatal(err)
	}

	// Stop accepting HTTP traffic and drain the in-flight jobs. A second
	// signal, or the drain timeout, hard-cancels everything still running
	// and waits briefly for the cancellations to land.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	go func() {
		select {
		case sig := <-sigc:
			log.Printf("%v: hard-cancelling in-flight jobs", sig)
			cancelDrain()
		case <-drainCtx.Done():
		}
	}()
	go srv.Shutdown(drainCtx)
	if err := runner.Drain(drainCtx); err != nil {
		runner.CancelAll()
		landCtx, cancelLand := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancelLand()
		if err := runner.Drain(landCtx); err != nil {
			log.Fatalf("jobs stuck after hard cancel: %v", err)
		}
	}
	cmdutil.PrintCacheStats(os.Stderr, env.Cache)
	log.Printf("drained, exiting")
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
	srv := &http.Server{Addr: addr, Handler: c.Handler()}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("coordinating %d nodes on http://%s", len(nodes), ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining (second signal abandons in-flight jobs)", sig)
	case err := <-errc:
		log.Fatal(err)
	}

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelDrain()
	go func() {
		select {
		case sig := <-sigc:
			log.Printf("%v: abandoning in-flight jobs", sig)
			cancelDrain()
		case <-drainCtx.Done():
		}
	}()
	go srv.Shutdown(drainCtx)
	if err := c.Drain(drainCtx); err != nil {
		log.Fatalf("drain incomplete: %v", err)
	}
	st := c.Stats()
	log.Printf("drained, exiting (submits=%d affinity=%d reroutes=%d lost=%d)",
		st.Submits, st.AffinityHits, st.Reroutes, st.Lost)
}
