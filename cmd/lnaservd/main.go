// Command lnaservd is the design-as-a-service daemon: an HTTP/JSON job
// server where design, extraction and Monte-Carlo sweep jobs enter a
// durable, crash-safe work queue, pass per-tenant admission control, and are
// executed by a retrying worker fleet. A SIGKILL at any instant loses no
// acknowledged job: on restart, queued jobs are still queued and
// interrupted jobs resume from their checkpoints bit-identically.
//
// Usage:
//
//	lnaservd [-addr 127.0.0.1:8080] [-dir servd-data] [-workers N]
//	         [-tenants policy.json] [-rate R] [-burst B] [-inflight N]
//	         [-job-max-evals N] [-max-depth N] [-retries N]
//	         [-job-timeout 5m] [-drain-timeout 30s] [-journal run.jsonl]
//
// API:
//
//	POST /jobs             submit a job spec; 202 + job document on accept,
//	                       200 on dedupe, 429 + Retry-After over quota,
//	                       503 + Retry-After when full or draining
//	GET  /jobs?tenant=     list retained jobs
//	GET  /jobs/{id}        poll one job
//	GET  /jobs/{id}/result fetch a succeeded job's result document
//	POST /jobs/{id}/cancel cancel a queued or running job
//	GET  /healthz          readiness (degrades to 503 "draining" on shutdown)
//	GET  /metrics          Prometheus text format (gnsslna_jobs_* families)
//	GET  /events           live SSE event stream
//	GET  /debug/pprof      profiling
//
// The -tenants file maps tenant name to admission policy, optionally with
// service-level objectives (target p99 end-to-end latency in milliseconds and
// tolerated error-rate fraction) surfaced as jobs.slo.* burn-rate gauges on
// /metrics and in the /healthz document:
//
//	{"acme": {"rate_per_sec": 2, "burst": 5, "max_in_flight": 8,
//	          "max_evals_per_job": 200000,
//	          "slo_p99_ms": 30000, "slo_error_rate": 0.01}}
//
// Tenants absent from the file get the -rate/-burst/-inflight/-job-max-evals
// defaults (all zero: unlimited).
//
// SIGINT/SIGTERM degrade gracefully: /healthz flips to draining, new
// submissions get 503, in-flight jobs checkpoint and re-queue, and the
// journal closes cleanly for the next start to resume.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gnsslna/internal/obs"
	"gnsslna/internal/obs/export"
	"gnsslna/internal/resilience"
	"gnsslna/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen `address` for the job API")
	dir := flag.String("dir", "servd-data", "data root `directory` (queue journal + job artifacts)")
	workers := flag.Int("workers", 2, "worker fleet size")
	tenantsPath := flag.String("tenants", "", "JSON `file` mapping tenant name to admission policy")
	rate := flag.Float64("rate", 0, "default tenant admission rate (jobs/sec, 0: unlimited)")
	burst := flag.Float64("burst", 0, "default tenant burst capacity")
	inflight := flag.Int("inflight", 0, "default tenant in-flight job quota (0: unlimited)")
	jobMaxEvals := flag.Int64("job-max-evals", 0, "default per-job objective-evaluation cap (0: unlimited)")
	maxDepth := flag.Int("max-depth", 0, "queued-job bound before load shedding (0: 1024)")
	retries := flag.Int("retries", 3, "attempts per job on transient failure")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "default wall-clock bound per job attempt")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on graceful shutdown")
	journal := flag.String("journal", "", "write a JSONL event journal to this `path`")
	flag.Parse()

	if err := run(*addr, *dir, *workers, *tenantsPath, serve.TenantPolicy{
		RatePerSec: *rate, Burst: *burst, MaxInFlight: *inflight, MaxEvalsPerJob: *jobMaxEvals,
	}, *maxDepth, *retries, *jobTimeout, *drainTimeout, *journal); err != nil {
		fmt.Fprintln(os.Stderr, "lnaservd:", err)
		os.Exit(1)
	}
}

func loadTenants(path string) (map[string]serve.TenantPolicy, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	// Strict decoding: a misspelt policy field (say "slo_p99" for
	// "slo_p99_ms") would otherwise silently drop that part of the policy.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var policies map[string]serve.TenantPolicy
	if err := dec.Decode(&policies); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the policy map")
		}
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	return policies, nil
}

func run(addr, dir string, workers int, tenantsPath string, def serve.TenantPolicy,
	maxDepth, retries int, jobTimeout, drainTimeout time.Duration, journal string) error {
	tenants, err := loadTenants(tenantsPath)
	if err != nil {
		return err
	}

	// Observability: the shared registry backs /metrics, the broadcaster
	// feeds /events, and the journal anchors this process on the wall clock
	// (the epoch record) so replay.Merge can stitch restart journals onto one
	// timeline. The serve layer stamps every event with the owning job's
	// durable trace identity, so the sink must stay raw — wrapping it in a
	// Traced here would overwrite the cross-restart trace IDs.
	reg := obs.NewRegistry()
	bc := export.NewBroadcaster()
	bc.CountDrops(reg.Counter("sse.dropped"))
	var j *obs.Journal
	if journal != "" {
		if j, err = obs.OpenJournal(journal); err != nil {
			return err
		}
		defer j.Close()
		if err := j.AppendEpoch(); err != nil {
			return err
		}
	}
	hub := obs.NewHub(reg, j)

	s, err := serve.New(serve.Options{
		Dir:            dir,
		Workers:        workers,
		Queue:          serve.QueueOptions{MaxDepth: maxDepth},
		Tenants:        tenants,
		DefaultPolicy:  def,
		Retry:          resilience.RetryPolicy{MaxAttempts: retries},
		DefaultTimeout: jobTimeout,
		Registry:       reg,
		Observer:       obs.Multi(hub, bc),
		Broadcast:      bc,
	})
	if err != nil {
		return err
	}
	rep := s.Queue().Recovery()
	fmt.Fprintf(os.Stderr, "lnaservd: recovered %d queued, %d resumed, %d terminal jobs",
		rep.Queued, rep.Resumed, rep.Terminal)
	if n := len(rep.TailLosses); n > 0 {
		fmt.Fprintf(os.Stderr, " (%d torn journal tails amputated)", n)
	}
	fmt.Fprintln(os.Stderr)
	s.Start()

	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "lnaservd: serving on http://%s (data in %s, %d workers)\n", addr, dir, workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
	}

	fmt.Fprintln(os.Stderr, "lnaservd: draining (in-flight jobs checkpoint and re-queue)")
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Order matters: the serve layer flips /healthz to draining and parks
	// the fleet first, then the listener closes so in-progress status polls
	// finish.
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lnaservd: drain:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "lnaservd: stopped; restart resumes the queue")
	return nil
}
