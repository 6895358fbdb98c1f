// Command metainsightd is the resident MetaInsight service: an HTTP+JSON
// daemon holding a registry of named datasets, each fronted by a long-lived
// Session. Every request passes an admission controller (bounded concurrency,
// bounded wait queue, deadline-aware load shedding) and per-tenant token-bucket
// quotas; durable jobs journal their specs under the state directory, so a
// crash — including kill -9 — re-mines in-flight jobs on the next start with
// bit-identical results.
//
// Usage:
//
//	metainsightd -data name=path[,temporal=Col] [-data ...] [-addr 127.0.0.1:8080]
//	             [-state dir] [-max-concurrent 8] [-max-queue 64]
//	             [-quota-rate r] [-quota-burst b] [-job-workers 2]
//	             [-max-card 100]
//
//	metainsightd -addr :8080 -data house=testdata/house_sales.csv -state /var/lib/metainsightd
//
// -h lists every flag with its meaning and default.
//
// Endpoints:
//
//	POST /v1/analyze          synchronous analysis (X-Tenant, X-Deadline-Ms headers)
//	POST /v1/jobs             submit a durable job (202 + job id)
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status (insights + stats when done)
//	GET  /v1/jobs/{id}/stream live SSE stream of progressive discoveries
//	GET  /v1/datasets         registered datasets
//	GET  /healthz             liveness + admission snapshot
//	GET  /metricsz            serve.* counters and gauges, and process.* GC signals
//
// SIGINT/SIGTERM drain gracefully: queued requests are shed with a typed
// shutting-down error, running jobs stop (the next start re-mines them), and
// the process exits 0. A second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"metainsight"
	"metainsight/internal/serve"
)

// dataFlags collects repeatable -data name=path[,temporal=Col] mappings.
type dataFlags []serve.DatasetSpec

func (d *dataFlags) String() string { return fmt.Sprintf("%d datasets", len(*d)) }

func (d *dataFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=path[,temporal=Column], got %q", v)
	}
	spec := serve.DatasetSpec{Name: name}
	parts := strings.Split(rest, ",")
	spec.Path = parts[0]
	for _, p := range parts[1:] {
		k, val, ok := strings.Cut(p, "=")
		if !ok || k != "temporal" {
			return fmt.Errorf("unknown dataset option %q (want temporal=Column)", p)
		}
		spec.DeriveTemporal = val
	}
	*d = append(*d, spec)
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		stateDir   = flag.String("state", "", "durable state directory (empty disables durable jobs)")
		maxConc    = flag.Int("max-concurrent", 8, "max concurrent analyses")
		maxQueue   = flag.Int("max-queue", 64, "max queued admission waiters")
		quotaRate  = flag.Float64("quota-rate", 0, "per-tenant sustained requests/second (0 = unlimited)")
		quotaBurst = flag.Float64("quota-burst", 0, "per-tenant burst size (0 = max(1, rate))")
		jobWorkers = flag.Int("job-workers", 2, "concurrent durable job workers")
		maxCard    = flag.Int("max-card", 100, "drop categorical columns with more distinct values")
		datasets   dataFlags
	)
	flag.Var(&datasets, "data", "dataset as name=path[,temporal=Column] (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "metainsightd: ", log.LstdFlags)
	if len(datasets) == 0 {
		logger.Println("no -data flags given; at least one dataset is required")
		flag.Usage()
		os.Exit(2)
	}
	for i := range datasets {
		datasets[i].MaxCardinality = *maxCard
	}

	// METAINSIGHTD_UNIT_DELAY_MS is a test-only throttle: it sleeps the job
	// progress callback per discovery so the chaos suite can kill the daemon
	// mid-job deterministically. Inert to results (cost budgets ignore wall
	// time).
	var unitDelay time.Duration
	if v := os.Getenv("METAINSIGHTD_UNIT_DELAY_MS"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			logger.Fatalf("invalid METAINSIGHTD_UNIT_DELAY_MS %q: %v", v, err)
		}
		unitDelay = time.Duration(ms) * time.Millisecond
	}

	ob := metainsight.NewObserver(metainsight.ObserverOptions{})
	srv, err := serve.New(serve.Config{
		Datasets:  datasets,
		StateDir:  *stateDir,
		Admission: serve.AdmissionConfig{MaxConcurrent: *maxConc, MaxQueue: *maxQueue},
		Quota:     serve.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
		Jobs:      serve.JobsConfig{Workers: *jobWorkers},
		Observer:  ob,
		Logf:      logger.Printf,
		UnitDelay: unitDelay,
	})
	if err != nil {
		logger.Fatalf("startup: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	// The chaos/smoke harness parses this line to learn the bound port.
	fmt.Printf("listening on %s\n", ln.Addr().String())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Println("signal received; draining")
		stop() // a second signal kills immediately
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
		srv.Close()
		logger.Println("drained; exiting")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			logger.Fatalf("serve: %v", err)
		}
	}
}
