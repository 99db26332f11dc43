// Command perfvec-serve runs the batched inference service: an HTTP server
// over internal/serve that coalesces concurrent program submissions into
// batched encoder passes, caches representations by program hash, and
// applies per-client rate limits plus a bounded accept queue.
//
// Without -model it serves a freshly initialized default-config model with
// a random 9-row table (useful for load testing the serving path itself);
// with it, it serves the model file perfvec-train wrote, whose architecture,
// dimensions and table rows all come from the file.
//
// Usage:
//
//	perfvec-serve -addr :8923 -model perfvec-model.gob
//
// Endpoints: POST /v1/submit, POST /v1/sweep, GET /v1/predict, GET /metrics,
// GET /healthz (see the internal/serve package documentation for wire
// formats).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/perfvec"
	"repro/internal/serve"
	"repro/internal/uarch"
)

func main() {
	var (
		addr      = flag.String("addr", ":8923", "listen address")
		modelPath = flag.String("model", "", "model path (empty: fresh default-config model and 9-row table)")
		cacheSize = flag.Int("cache", 4096, "representation cache entries")
		window    = flag.Duration("batch-window", 200*time.Microsecond, "time bound on an open batch (0: flush when the queue drains)")
		maxRows   = flag.Int("max-batch-rows", 1024, "size bound on a batch, in instruction rows")
		queue     = flag.Int("queue", 256, "accept queue depth (full queue answers 503)")
		workers   = flag.Int("workers", 2, "concurrent encode workers")
		rate      = flag.Float64("rate", 0, "per-client tokens/sec (0: no rate limiting)")
		burst     = flag.Float64("burst", 8, "per-client token bucket burst")
		precision = flag.String("precision", "f32", "encode engine: f32 (fast path, bitwise the training forward) or int8 (quantized)")
		sweepMax  = flag.Int("sweep-max", 8192, "largest candidate space one /v1/sweep may request (0: disable sweeps)")
	)
	flag.Parse()

	prec, err := serve.ParsePrecision(*precision)
	if err != nil {
		fatal(err)
	}

	f, table, err := load(*modelPath)
	if err != nil {
		fatal(err)
	}

	// The /v1/sweep endpoint needs a calibrated microarchitecture model. A
	// fresh model calibrated on a generated space serves throughput and API
	// testing; serving trained sweep predictions means training it with
	// perfvec.TrainUarchModel (see internal/dse) against this foundation.
	var um *perfvec.UarchModel
	if *sweepMax > 0 {
		um = perfvec.NewUarchModel(f.Cfg.RepDim, 32, 0)
		um.Calibrate(uarch.GenerateSpace(uarch.SpaceSpec{Size: 512, Seed: 1}))
	}

	s, err := serve.NewService(serve.Config{
		Model: f, Table: table, Uarch: um,
		CacheSize:   *cacheSize,
		BatchWindow: *window, MaxBatchRows: *maxRows,
		QueueDepth: *queue, EncodeWorkers: *workers,
		Precision: prec,
		Rate:      *rate, Burst: *burst,
		MaxSweepConfigs: *sweepMax,
	})
	if err != nil {
		fatal(err)
	}

	srv := newServer(*addr, s.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "perfvec-serve: listening on %s (%s-%d-%d, %d uarchs)\n",
		*addr, f.Cfg.Model, f.Cfg.Layers, f.Cfg.Hidden, table.K())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case <-sig:
	}

	// Graceful shutdown: stop accepting, drain in-flight HTTP requests, then
	// drain the batcher.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfvec-serve: shutdown:", err)
	}
	s.Close()
}

// Connection timeouts. A client that trickles its headers or body, or parks
// an idle keep-alive connection, is cut off instead of holding a connection
// forever. ReadTimeout leaves room for a maximum-size submission body on a
// slow link. There is no write timeout: /v1/sweep streams its response, and
// a large sweep may legitimately outlast any fixed bound.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newServer builds the HTTP server for handler on addr with the connection
// timeouts above.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// load reads the model file at path, or builds a fresh default-config model
// and 9-row table when path is empty.
func load(path string) (*perfvec.Foundation, *perfvec.Table, error) {
	if path == "" {
		cfg := perfvec.DefaultConfig()
		return perfvec.NewFoundation(cfg), perfvec.NewTable(9, cfg.RepDim, 0), nil
	}
	fh, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer fh.Close()
	f, table, _, err := perfvec.LoadModel(fh)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, table, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfvec-serve:", err)
	os.Exit(1)
}
