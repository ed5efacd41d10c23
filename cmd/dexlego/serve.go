package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
	"dexlego/internal/server"
	"dexlego/internal/store"
)

// serveHooks lets tests observe the bound listener and stop the server
// without delivering a real signal; both are nil in production.
var serveHooks struct {
	listener func(net.Listener)
	stop     <-chan struct{}
}

// drainTimeout bounds the graceful shutdown after SIGTERM/SIGINT:
// in-flight requests and queued jobs get this long to finish.
const drainTimeout = 30 * time.Second

// serveConfig carries the -serve flag set into runServe.
type serveConfig struct {
	addr        string
	storeDir    string
	incremental bool
	// memBudget caps the estimated heap footprint of concurrently running
	// reveals and enables the spill tier (0 = unlimited, no spilling).
	memBudget     int64
	queueDepth    int
	jobs          int
	revealWorkers int
	sink          *obs.JSONLSink
	flightDir     string
	slo           time.Duration
}

// runServe runs the reveal service until SIGTERM/SIGINT, then drains:
// admission stops (POST 503, readiness flips), in-flight HTTP requests and
// every admitted job complete, and only then does the process exit.
func runServe(sc serveConfig) error {
	st, err := store.Open(sc.storeDir, 0)
	if err != nil {
		return err
	}
	if sc.flightDir != "" {
		if err := os.MkdirAll(sc.flightDir, 0o755); err != nil {
			return fmt.Errorf("-flight-dir: %w", err)
		}
	}
	var mcache *store.MethodCache
	if sc.incremental {
		// The method cache persists beside the artifact store when one is on
		// disk, so warm trees survive restarts along with the artifacts.
		dir := ""
		if sc.storeDir != "" {
			dir = filepath.Join(sc.storeDir, "methods")
		}
		if mcache, err = store.OpenMethodCache(dir, 0); err != nil {
			return err
		}
	}
	var memBudget *pipeline.MemoryBudget
	var spillCache *store.MethodCache
	if sc.memBudget > 0 {
		memBudget = pipeline.NewMemoryBudget(sc.memBudget)
		// The spill tier is memory-only, its LRU capped at a quarter of the
		// budget. That cap does not bound a reveal's memory: every spilled
		// record also keeps its serialized bytes as the fetch fallback, so a
		// disk tier would only add a SHA-256 and a file per record that
		// nothing reads back.
		if spillCache, err = store.OpenMethodCache("", sc.memBudget/4); err != nil {
			return err
		}
	}
	srv, err := server.New(server.Config{
		Store:         st,
		MethodCache:   mcache,
		MemBudget:     memBudget,
		SpillCache:    spillCache,
		Workers:       sc.jobs,
		RevealWorkers: sc.revealWorkers,
		QueueDepth:    sc.queueDepth,
		Sink:          teeSink(sc.sink),
		FlightDir:     sc.flightDir,
		SLO:           sc.slo,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", sc.addr)
	if err != nil {
		srv.Close()
		return fmt.Errorf("-addr: %w", err)
	}
	if serveHooks.listener != nil {
		serveHooks.listener(ln)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	storeDir := sc.storeDir
	if storeDir == "" {
		storeDir = "(memory only)"
	}
	fmt.Printf("dexlego service on http://%s (store %s, queue %d)\n", ln.Addr(), storeDir, sc.queueDepth)
	select {
	case err := <-errc:
		srv.Close()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	case <-serveHooks.stop:
	}
	slog.Info("drain: stopping admission, finishing in-flight jobs")
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		slog.Warn("drain: http shutdown failed", "err", err)
	}
	srv.Close()
	fmt.Println("dexlego service drained")
	return nil
}
