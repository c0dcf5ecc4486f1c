// Command cvworker runs a ConfigValidator shard-scan worker: the remote
// half of distributed fleet validation. A coordinator (cvserver
// -coordinate) ships shards of configuration frames to POST
// /v1/shard/scan; the worker scans them through the ordinary fleet
// pipeline and streams back heartbeats and per-entity results under the
// coordinator's lease.
//
//	cvworker -addr :9101 -journal-dir /var/lib/cv/segments
//
// With -journal-dir set, each shard writes a durable journal segment; a
// shard re-leased to this worker after a lease revocation replays the
// results it already completed instead of re-scanning them. The segment
// files carry an exclusive flock, so a re-lease that races a still-dying
// previous request gets HTTP 409 and the coordinator retries — no two
// requests can ever append to one segment concurrently.
//
// The worker serves the full validation API (it is a cvserver that also
// scans shards), so /readyz, /metrics, admission limits, the circuit
// breaker, and SIGTERM draining all behave identically. Coordinators
// probe /readyz to decide when a failed worker may take leases again.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/server"
)

// faultsEnvVar names the fault-injection spec variable for log lines.
const faultsEnvVar = "CV_FAULTS"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cvworker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cvworker", flag.ContinueOnError)
	addr := fs.String("addr", ":9101", "listen address")
	journalDir := fs.String("journal-dir", "", "directory for per-shard journal segments (empty disables worker-side resume)")
	shardWorkers := fs.Int("shard-workers", 0, "concurrent entity scans per shard (0 = GOMAXPROCS)")
	scanDelay := fs.Duration("scan-delay", 0, "artificial per-entity delay, for chaos drills and CI smokes only")
	maxUpload := fs.Int64("max-upload", server.MaxFrameBytes, "largest accepted request body in bytes (oversized uploads get HTTP 413)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent validation/shard requests admitted (0 = default)")
	maxQueue := fs.Int("queue", 0, "requests allowed to wait for a slot (0 = default)")
	queueWait := fs.Duration("queue-wait", 0, "longest a queued request waits before shedding (0 = default)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive server-side failures that open the circuit breaker (0 = default)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "how long the breaker stays open before probing (0 = default)")
	parseCacheSize := fs.Int("parse-cache", configvalidator.DefaultParseCacheSize, "content-addressed parse cache capacity in files (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxUpload <= 0 {
		return fmt.Errorf("-max-upload must be positive")
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			return fmt.Errorf("create journal dir: %w", err)
		}
	}
	inj, err := configvalidator.FaultsFromEnv()
	if err != nil {
		return err
	}
	vopts := []configvalidator.Option{
		configvalidator.WithTelemetry(configvalidator.NewCollector()),
	}
	if *parseCacheSize > 0 {
		vopts = append(vopts, configvalidator.WithParseCache(configvalidator.NewParseCache(*parseCacheSize)))
	}
	if inj != nil {
		fmt.Fprintf(os.Stderr, "cvworker: fault injection armed via %s\n", faultsEnvVar)
		vopts = append(vopts, configvalidator.WithFaults(inj))
	}
	validator, err := configvalidator.New(vopts...)
	if err != nil {
		return err
	}
	s, err := server.New(validator)
	if err != nil {
		return err
	}
	s.MaxUploadBytes = *maxUpload
	s.ShardWorkers = *shardWorkers
	s.ShardJournalDir = *journalDir
	s.ShardScanDelay = *scanDelay
	s.Limits = server.Limits{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		QueueWait:        *queueWait,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute, // shards can be large
		// No WriteTimeout: shard result streams are long-lived by design;
		// the coordinator's lease watchdog bounds them instead.
	}

	errCh := make(chan error, 1)
	go func() {
		errCh <- httpServer.ListenAndServe()
	}()
	fmt.Fprintf(os.Stderr, "cvworker listening on %s (shards at /v1/shard/scan, metrics at /metrics)\n", *addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "received %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Drain: /readyz flips not-ready so coordinators stop leasing to
		// this worker, in-flight shards finish streaming, then the listener
		// closes. A coordinator that leases during the race gets 503 and
		// reassigns elsewhere.
		if err := s.BeginDrain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "cvworker: drain: %v\n", err)
		}
		if err := httpServer.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}
