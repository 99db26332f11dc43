// Command perfvec-serve runs the batched inference service: an HTTP server
// over internal/serve that coalesces concurrent program submissions into
// batched encoder passes, caches representations by program hash, and
// applies per-client rate limits plus a bounded accept queue.
//
// Without -model/-table it serves a freshly initialized model (useful for
// load testing the serving path itself); with them it serves the artifacts
// perfvec-train wrote.
//
// Usage:
//
//	perfvec-serve -addr :8923 -model perfvec-model.gob -table perfvec-table.gob
//
// Endpoints: POST /v1/submit, POST /v1/sweep, GET /v1/predict, GET /metrics,
// GET /healthz (see the internal/serve package documentation for wire
// formats).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
		modelPath = flag.String("model", "", "foundation model path (empty: fresh default-config model)")
		tablePath = flag.String("table", "", "representation table path (empty: fresh random table)")
		uarchs    = flag.Int("uarchs", 9, "microarchitectures in the table (must match training when loading)")
		hidden    = flag.Int("hidden", 32, "model width (must match training when loading)")
		layers    = flag.Int("layers", 2, "model depth (must match training when loading)")
		arch      = flag.String("arch", "lstm", "architecture (must match training when loading)")
		cacheSize = flag.Int("cache", 4096, "representation cache entries")
		window    = flag.Duration("batch-window", 200*time.Microsecond, "time bound on an open batch (0: flush when the queue drains)")
		maxRows   = flag.Int("max-batch-rows", 1024, "size bound on a batch, in instruction rows")
		queue     = flag.Int("queue", 256, "accept queue depth (full queue answers 503)")
		workers   = flag.Int("workers", 2, "concurrent encode workers")
		rate      = flag.Float64("rate", 0, "per-client tokens/sec (0: no rate limiting)")
		burst     = flag.Float64("burst", 8, "per-client token bucket burst")
		precision = flag.String("precision", "f32", "encode engine: f32 (fast path), int8 (quantized), or f64 (oracle audit mode)")
		sweepMax  = flag.Int("sweep-max", 8192, "largest candidate space one /v1/sweep may request (0: disable sweeps)")
	)
	flag.Parse()

	prec, err := serve.ParsePrecision(*precision)
	if err != nil {
		fatal(err)
	}

	mcfg := perfvec.DefaultConfig()
	mcfg.Model = perfvec.ModelKind(*arch)
	mcfg.Hidden = *hidden
	mcfg.RepDim = *hidden
	mcfg.Layers = *layers

	f := perfvec.NewFoundation(mcfg)
	if *modelPath != "" {
		if err := loadInto(*modelPath, f.Load); err != nil {
			fatal(err)
		}
	}
	table := perfvec.NewTable(*uarchs, mcfg.RepDim, 0)
	if *tablePath != "" {
		if err := loadInto(*tablePath, table.Load); err != nil {
			fatal(err)
		}
	}

	// The /v1/sweep endpoint needs a calibrated microarchitecture model. A
	// fresh model calibrated on a generated space serves throughput and API
	// testing; serving trained sweep predictions means training it with
	// perfvec.TrainUarchModel (see internal/dse) against this foundation.
	var um *perfvec.UarchModel
	if *sweepMax > 0 {
		um = perfvec.NewUarchModel(mcfg.RepDim, 32, 0)
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
		*addr, mcfg.Model, mcfg.Layers, mcfg.Hidden, table.K())

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

func loadInto(path string, load func(io.Reader) error) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return load(fh)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfvec-serve:", err)
	os.Exit(1)
}
