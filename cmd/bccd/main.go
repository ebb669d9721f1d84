// Command bccd is the crash-safe bicoop job daemon: an HTTP/JSON service
// accepting sweep, region-batch and simulation-campaign jobs, running them
// through the bicoop engine with durable per-job checkpointing. Jobs
// survive anything the process does not: a kill -9 mid-job loses at most
// the rows past the last checkpoint, and the restarted daemon resumes every
// interrupted job from its watermark, producing results byte-identical to
// an uninterrupted run. SIGTERM drains gracefully — admission stops,
// running jobs checkpoint and park, and the process exits within the drain
// deadline. See the package documentation's "Running bccd" section for the
// endpoints and job lifecycle.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"bicoop"
	"bicoop/internal/cache"
	"bicoop/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bccd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bccd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address")
	store := fs.String("store", "", "durable job store directory (required)")
	queue := fs.Int("queue", 16, "admission queue capacity; a full queue sheds with 429")
	jobs := fs.Int("jobs", 1, "jobs run concurrently (each job shards internally)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown deadline on SIGTERM/SIGINT")
	workers := fs.Int("workers", 0, "engine worker default for jobs that leave Workers 0 (0 = GOMAXPROCS)")
	cacheCap := fs.Int("cache", 0, "result-cache capacity in entries, persisted to cache.log in the store directory (0 = caching off)")
	addrFile := fs.String("addrfile", "", "write the bound address to this file once listening (for scripts and tests)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	// Install the drain handler before anything is started or announced:
	// a SIGTERM that arrives once -addrfile exists (or even while the store
	// is being recovered) is then queued and drained like any other,
	// instead of killing the process with the default action.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	st, err := service.OpenStore(*store)
	if err != nil {
		return err
	}
	var engOpts []bicoop.Option
	if *workers > 0 {
		engOpts = append(engOpts, bicoop.WithWorkers(*workers))
	}
	svcOpts := service.Options{
		QueueCap:  *queue,
		Executors: *jobs,
	}
	if *cacheCap > 0 {
		// The durable tier shares the store directory (the job store only
		// scans jNNNNNN subdirectories, so cache.log is out of its way):
		// replay the log into a fresh in-process store, hand that store to
		// the engine, and let the service flush fills after every job.
		cst := cache.NewStore(*cacheCap)
		clog, err := service.OpenCacheLog(filepath.Join(*store, "cache.log"), cst)
		if err != nil {
			return err
		}
		defer clog.Close()
		engOpts = append(engOpts, bicoop.WithCacheStore(cst))
		svcOpts.CacheLog = clog
	}
	svc := service.New(context.Background(), st, bicoop.NewEngine(engOpts...), svcOpts)
	if err := svc.Start(); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		// tmp+rename so a reader never sees a half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	srv := &http.Server{Handler: service.NewHandler(svc)}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "bccd: listening on %s, store %s\n", ln.Addr(), *store)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "bccd: %v, draining (deadline %s)\n", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then park in-flight jobs. Both share
	// the drain deadline; a job that cannot checkpoint in time is still
	// re-queued durably (its state never advanced past running → queued on
	// the next recovery scan).
	shutdownErr := srv.Shutdown(ctx)
	if err := svc.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	fmt.Fprintln(os.Stderr, "bccd: drained, exiting")
	return nil
}
