// mheta-serve runs the MHETA prediction/search service: an HTTP/JSON
// server over the same model pipeline the CLI binaries use, returning
// bit-identical values at request throughput (see internal/serve).
//
// Usage:
//
//	mheta-serve -addr :8080
//	mheta-serve -addr 127.0.0.1:0 -queue-depth 64 -max-searches 8
//	mheta-serve -metrics final.json   # end-of-run snapshot, plus live GET /metrics
//
// Endpoints:
//
//	POST /predict  {"app","config","scale","seed","dist","detailed","timeout_ms"}
//	POST /search   {"app","config","scale","seed","alg","workers","timeout_ms"}
//	GET  /metrics  observability registry snapshot as JSON
//
// SIGINT/SIGTERM drains gracefully: new requests are refused with 503,
// in-flight work completes (bounded by -drain), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mheta/cmd/internal/cliutil"
	"mheta/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mheta-serve: ")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	queueDepth := flag.Int("queue-depth", 256, "in-flight /predict requests per engine (>= 1); one more sheds with 429")
	memoLimit := flag.Int("memo-limit", 1<<20, "shared memo entries per engine before epoch eviction (>= 1)")
	maxSearches := flag.Int("max-searches", 2, "concurrently running searches (>= 1)")
	searchBacklog := flag.Int("search-backlog", 0, "searches allowed to wait beyond -max-searches (0 selects 2x -max-searches)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "upper clamp on client-requested timeout_ms")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget on SIGINT/SIGTERM")
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	if *queueDepth < 1 {
		cliutil.Usagef("-queue-depth must be at least 1, got %d", *queueDepth)
	}
	if *memoLimit < 1 {
		cliutil.Usagef("-memo-limit must be at least 1, got %d", *memoLimit)
	}
	if *maxSearches < 1 {
		cliutil.Usagef("-max-searches must be at least 1, got %d", *maxSearches)
	}
	if *searchBacklog < 0 {
		cliutil.Usagef("-search-backlog must not be negative, got %d", *searchBacklog)
	}
	if *timeout <= 0 || *maxTimeout <= 0 || *drain <= 0 {
		cliutil.Usagef("-timeout, -max-timeout and -drain must be positive")
	}
	reg := obsFlags.Start()
	defer obsFlags.Finish()

	srv := serve.New(serve.Config{
		QueueDepth:     *queueDepth,
		MemoLimit:      *memoLimit,
		MaxSearches:    *maxSearches,
		SearchBacklog:  *searchBacklog,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Registry:       reg, // nil makes a private one; GET /metrics works either way
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address matters when -addr picks port 0.
	log.Printf("listening on http://%s", ln.Addr())
	httpSrv := &http.Server{Handler: srv}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("%s: draining (up to %s)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop the listener and wait for HTTP handlers, then for the
		// serving internals (engine builds).
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	log.Printf("drained")
}
