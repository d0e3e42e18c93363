// Command swserve fronts a Smith-Waterman search cluster with an HTTP
// JSON API, turning the library into a long-running query service: the
// SwissAlign-webserver serving shape, with every request routed through
// the cluster's query scheduler (up to -inflight queries run at once,
// identical queries share one execution, repeats hit the LRU cache, and a
// /batch runs its queries one after another). Searches run on this host,
// every core on each query; the paper's device roster is priced by
// swbench, not served.
//
// Usage:
//
//	swserve -synthetic 0.01 -listen :7734
//	swserve -db swissprot.swdb
//
// Endpoints:
//
//	POST /search   {"id": "q1", "residues": "MKWVLA...", "top_k": 10}
//	POST /batch    {"queries": [{"id": "a", "residues": "..."}], "top_k": 5}
//	GET  /healthz  database, host backend, scheduler and cache snapshot
//
// Example session:
//
//	swserve -synthetic 0.001 &
//	curl -s localhost:7734/search -d '{"residues":"MKWVLAARND","top_k":3}'
//	curl -s localhost:7734/healthz
//
// # Distributed serving
//
// swserve also runs as either side of a multi-node deployment over a
// swindex-split shard cut:
//
//	swindex split db.swdb -n 2 -dir shards/
//	swserve -shards shards/db-00.swdb -listen :7741        # node A
//	swserve -shards shards/db-01.swdb -listen :7742        # node B
//	swserve -db db.swdb -manifest shards/db.manifest.json \
//	        -nodes http://localhost:7741,http://localhost:7742
//
// A -shards node serves the shard execution protocol (GET /shards, POST
// /shard/search) for the listed shard files; the coordinator (-manifest
// -nodes) fans each front-door query out to the nodes owning each shard,
// merges scores into parent order, traces back the top hits itself over
// the parent index, and answers the normal /search, /batch and /healthz
// API with results byte-identical to a single-node search of the unsplit
// database. Nodes score shards under their OWN kernel flags and the
// coordinator traces back under its own — configure nodes and
// coordinator identically. -node-timeout, -node-retries, -node-backoff and -hedge
// shape the coordinator's tail-latency policy; only 503 answers and
// transport failures are retried.
//
// The coordinator's topology is live: a background prober (-probe-interval,
// -probe-dead-after) tracks every node through a healthy/degraded/dead
// state machine, fails a dead node's shards over to surviving replicas and
// readopts the node when it answers again — without a restart. SIGHUP or
// POST /admin/reload re-reads the manifest for a re-cut shard layout (a
// failed reload leaves the old topology serving); POST /admin/probe forces
// an immediate sweep; GET /healthz reports per-node health, probe latency
// quantiles and per-shard replica routing, answering "degraded" while any
// shard has no live replica.
//
// SIGINT/SIGTERM shuts down gracefully: in-flight requests get a drain
// window; if it expires, the cluster's scheduled paths are torn down so
// blocked handlers resolve with the retryable 503 — never a torn
// response — before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"heterosw"
	"heterosw/internal/vec"
)

func main() {
	var (
		listen    = flag.String("listen", ":7734", "HTTP listen address")
		dbPath    = flag.String("db", "", "database file: FASTA or a swindex-built .swdb index")
		synthetic = flag.Float64("synthetic", 0, "use a synthetic Swiss-Prot database at this scale instead of -db")
		matrix    = flag.String("matrix", "", "substitution matrix (default: BLOSUM62 for protein, NUC for DNA)")
		dna       = flag.Bool("dna", false, "nucleotide mode: parse the FASTA database under the IUPAC DNA alphabet")
		inflight  = flag.Int("inflight", 0, "max queries in flight (0 = default 4); a node's shards share it")
		cacheSize = flag.Int("cache", 0, "LRU result cache entries (0 = 512, negative disables); a node keeps no cache")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")

		shardsFlag  = flag.String("shards", "", "node mode: comma-separated shard .swdb files to serve the shard protocol for")
		manifest    = flag.String("manifest", "", "coordinator mode: shard manifest written by swindex split (requires -db parent index and -nodes)")
		nodes       = flag.String("nodes", "", "coordinator mode: comma-separated node base URLs")
		nodeTimeout = flag.Duration("node-timeout", 0, "coordinator: per-attempt node request timeout (0 = default 10s)")
		nodeRetries = flag.Int("node-retries", 0, "coordinator: retries per node request after a retryable failure (0 = default 2)")
		nodeBackoff = flag.Duration("node-backoff", 0, "coordinator: initial retry backoff, doubling per attempt (0 = default 100ms)")
		hedge       = flag.Duration("hedge", 0, "coordinator: duplicate a slow shard request to the next replica after this delay (0 disables)")
		probeEvery  = flag.Duration("probe-interval", 0, "coordinator: background health-probe period (0 = default 15s, negative disables)")
		deadAfter   = flag.Int("probe-dead-after", 0, "coordinator: consecutive probe failures that mark a node dead (0 = default 3)")
	)
	flag.Parse()

	opt := heterosw.ClusterOptions{
		Options:     heterosw.Options{Matrix: *matrix},
		MaxInFlight: *inflight,
		CacheSize:   *cacheSize,
	}

	if *shardsFlag != "" {
		if *dbPath != "" || *synthetic > 0 || *manifest != "" {
			fatal(fmt.Errorf("-shards (node mode) excludes -db, -synthetic and -manifest"))
		}
		runNode(*listen, splitList(*shardsFlag), opt, *drain)
		return
	}

	var (
		db  *heterosw.Database
		err error
	)
	switch {
	case *synthetic > 0:
		if *dna {
			fatal(fmt.Errorf("-dna does not apply to the synthetic protein database"))
		}
		db, _ = heterosw.SyntheticSwissProt(*synthetic, false)
	case *dbPath != "":
		// FASTA or a preprocessed .swdb index, sniffed by magic. Serving
		// restarts over a prebuilt index skip the parse and sort entirely,
		// so the server is ready near-instantly at any database scale.
		alpha := "protein"
		if *dna {
			alpha = "dna"
		}
		db, err = heterosw.LoadDatabaseFile(*dbPath, alpha)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("provide -db, -synthetic or -shards; see -help"))
	}

	var cl *heterosw.Cluster
	if *manifest != "" {
		nodeURLs := splitList(*nodes)
		if len(nodeURLs) == 0 {
			fatal(fmt.Errorf("-manifest (coordinator mode) requires -nodes"))
		}
		cl, err = heterosw.NewDistributedCluster(context.Background(), db, *manifest, nodeURLs, heterosw.DistributedOptions{
			Options:        opt.Options,
			MaxInFlight:    *inflight,
			CacheSize:      *cacheSize,
			Timeout:        *nodeTimeout,
			Retries:        *nodeRetries,
			Backoff:        *nodeBackoff,
			HedgeDelay:     *hedge,
			ProbeInterval:  *probeEvery,
			ProbeDeadAfter: *deadAfter,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("swserve: coordinator over %d nodes: %s\n", len(nodeURLs), strings.Join(nodeURLs, ", "))
	} else {
		cl, err = heterosw.NewCluster(db, opt)
		if err != nil {
			fatal(err)
		}
		logHost()
	}

	fmt.Printf("swserve: %s\n", db)
	fmt.Printf("swserve: listening on %s\n", *listen)
	var reload func() error
	if *manifest != "" {
		// SIGHUP hot-reloads the coordinator's manifest; the reload runs
		// under its own root context because it belongs to the process, not
		// to any request.
		reload = func() error { return cl.ReloadManifest(context.Background()) }
	}
	serve(*listen, heterosw.NewHTTPHandler(cl), *drain, cl.Close, cl.CloseNow, reload)
}

// logHost says what a local cluster's or a node's searches run on: the
// SIMD tier internal/vec dispatched and the worker goroutines per query,
// one per GOMAXPROCS.
func logHost() {
	fmt.Printf("swserve: host: %s, %d workers\n", vec.Info(), runtime.GOMAXPROCS(0))
}

// runNode serves the shard execution protocol for the listed shard .swdb
// files: one Cluster per shard, fronted by the heterosw.ShardServer
// handler, whose one scheduler runs every shard's searches under -inflight
// with no cache.
func runNode(listen string, shardFiles []string, opt heterosw.ClusterOptions, drain time.Duration) {
	if len(shardFiles) == 0 {
		fatal(fmt.Errorf("-shards needs at least one .swdb file"))
	}
	clusters := make([]*heterosw.Cluster, len(shardFiles))
	for i, path := range shardFiles {
		db, err := heterosw.OpenIndexFile(path)
		if err != nil {
			fatal(fmt.Errorf("shard %s: %w", path, err))
		}
		cl, err := heterosw.NewCluster(db, opt)
		if err != nil {
			fatal(fmt.Errorf("shard %s: %w", path, err))
		}
		clusters[i] = cl
		fmt.Printf("swserve: shard %s: %s (key %s)\n", path, db, db.Key())
	}
	ss, err := heterosw.NewShardServer(clusters)
	if err != nil {
		fatal(err)
	}
	logHost()
	fmt.Printf("swserve: node serving %d shard(s) on %s\n", len(shardFiles), listen)
	serve(listen, ss.Handler(), drain, func() {}, ss.CloseNow, nil)
}

// serve runs an HTTP server of h on listen until SIGINT/SIGTERM, then tears
// it down with shutdownServer. A non-nil reload runs on every SIGHUP (the
// coordinator's manifest hot-reload); serving continues either way — a
// failed reload leaves the old topology up, and the error is logged, not
// fatal.
func serve(listen string, h http.Handler, drain time.Duration, closeFn, closeNowFn func(), reload func() error) {
	srv := &http.Server{Addr: listen, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	var hup chan os.Signal
	if reload != nil {
		hup = make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	for {
		select {
		case err := <-errc:
			fatal(err)
		case <-hup:
			if err := reload(); err != nil {
				fmt.Fprintf(os.Stderr, "swserve: reload: %v\n", err)
			} else {
				fmt.Println("swserve: manifest reloaded")
			}
			continue
		case sig := <-stop:
			fmt.Printf("swserve: %v, draining for up to %v\n", sig, drain)
		}
		break
	}
	if err := shutdownServer(srv, drain, closeFn, closeNowFn); err != nil {
		fmt.Fprintf(os.Stderr, "swserve: shutdown: %v\n", err)
	}
	fmt.Println("swserve: stopped")
}

// shutdownServer serializes teardown so no client ever sees a torn
// response:
//
//  1. Drain: srv.Shutdown waits up to drain for in-flight requests to
//     finish. If they all do, the scheduled paths close gracefully
//     (closeFn) and we are done — CloseNow would be gratuitous.
//  2. Deadline exceeded: requests are still blocked inside the cluster
//     (typically waiting on scheduler tickets). Tear the scheduled paths
//     down first (closeNowFn): every blocked handler resolves with
//     ErrClusterClosed and writes a complete 503 JSON body. Only then
//     wait out a short flush window for exactly those writes; the
//     listener hard-closes only if even that expires.
//
// The previous ordering — Shutdown, then CloseNow with no second wait —
// let the process exit while just-unblocked handlers were mid-write,
// tearing their responses; and it used CloseNow even after a clean
// drain, aborting queued work that had every chance to finish.
func shutdownServer(srv *http.Server, drain time.Duration, closeFn, closeNowFn func()) error {
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err == nil {
		closeFn()
		return nil
	}
	closeNowFn()
	if !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	flush, fcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer fcancel()
	if ferr := srv.Shutdown(flush); ferr != nil {
		srv.Close()
		return fmt.Errorf("drain window expired and responses were still in flight after the flush window: %w", ferr)
	}
	return nil
}

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "swserve: %v\n", err)
	os.Exit(1)
}
