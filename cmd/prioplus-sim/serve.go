package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/serve"
)

// runServe implements the serve subcommand: the simulator as a service.
// It stands up the streaming server (so /metrics, /runs, and /events work
// exactly as in batch mode) and mounts the job API on the same listener:
// clients POST experiment specs to /jobs, poll status, and fetch
// byte-stable results. Identical specs are served from the deterministic
// result cache. See docs/API.md for the API reference.
func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "listen address for the job and streaming endpoints")
	workers := fs.Int("workers", 0, "concurrent job runs (0 = GOMAXPROCS)")
	queue := fs.Int("queue", serve.DefaultQueueDepth, "queued-job bound; submissions beyond it get HTTP 429")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock ceiling (0 = none)")
	cacheSize := fs.Int("cache", serve.DefaultCacheSize, "result cache entries (FIFO eviction)")
	manifestPath := fs.String("manifest", "", "fingerprint manifest to cross-check results against (e.g. testdata/fingerprints.json)")
	once := fs.Duration("for", 0, "exit after this duration (0 = run until signaled; for smoke tests)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file, flushed at shutdown")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at shutdown")
	fs.Parse(args)

	var manifest *serve.Manifest
	if *manifestPath != "" {
		var err error
		manifest, err = serve.LoadManifest(*manifestPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "manifest %s: %d runs under cross-check\n", *manifestPath, len(manifest.Runs))
	}

	var sched *serve.Scheduler
	srv, _, err := startLive(*listen, "job server on http://%s (/jobs /experiments /metrics /runs /events)\n",
		func(srv *stream.Server, runs *runner.RunTable) {
			sched = serve.New(serve.Config{
				Workers:    *workers,
				QueueDepth: *queue,
				Timeout:    *jobTimeout,
				CacheSize:  *cacheSize,
				Manifest:   manifest,
				RunTable:   runs,
				Hub:        srv.Hub,
			})
			serve.NewAPI(sched).Mount(srv)
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sched.Close()
		srv.Close()
		return 1
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	if *once > 0 {
		select {
		case <-sigc:
		case <-time.After(*once):
		}
	} else {
		<-sigc
	}
	fmt.Fprintln(os.Stderr, "shutting down: draining jobs")
	sched.Close()
	code := 0
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	return code
}
