// Command beaconsimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server exposing the beacon.Run machinery as a job service.
//
// Submit a beacon.RunSpec, poll the job, fetch the report:
//
//	beaconsimd -addr :8844 -quota-rate 2 -quota-burst 5 &
//	curl -XPOST -H 'X-Tenant: alice' --data @spec.json localhost:8844/v1/jobs
//	curl localhost:8844/v1/jobs/<id>
//	curl localhost:8844/v1/jobs/<id>/report
//	curl localhost:8844/metrics
//
// Reports are deterministic: the same spec always produces the same bytes,
// and the report's ETag is the provenance hash of the result — a client
// holding a report revalidates with If-None-Match and gets 304 back.
// Identical specs submitted by different tenants dedupe their workload
// construction through the shared on-disk cache.
//
// On SIGTERM/SIGINT the daemon drains gracefully: admission stops (503),
// in-flight jobs finish, and the process exits 0 — or 1 if the
// -drain-timeout deadline expires first.
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
	"sync/atomic"
	"syscall"
	"time"

	"beacon/internal/cliutil"
	"beacon/internal/obs"
	"beacon/internal/runner"
	"beacon/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("beaconsimd: ")

	var (
		addr          = flag.String("addr", ":8844", "listen `address`")
		jobs          = flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		queue         = flag.Int("queue", server.DefaultQueueDepth, "admission queue depth (full queue answers 429)")
		quotaRate     = flag.Float64("quota-rate", 0, "per-tenant sustained admission rate in jobs/sec (0 = unlimited)")
		quotaBurst    = flag.Float64("quota-burst", 0, "per-tenant admission burst (0 = max(rate, 1))")
		drainTimeout  = flag.Duration("drain-timeout", 2*time.Minute, "graceful-drain deadline after SIGTERM")
		workloadCache = flag.String("workload-cache", "auto", "on-disk workload cache `dir` (auto = per-user default, off = disabled)")
		observe       = flag.Bool("observe", true, "attach the observability layer to jobs; /metrics serves their metrics")
		sample        = flag.Int64("sample", 0, "metrics snapshot interval in simulated `cycles` (0 = final snapshot only)")
		version       = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.ReadBuildInfo())
		return
	}

	wc := cliutil.OpenWorkloadCache(*workloadCache)
	if wc != nil {
		log.Printf("workload cache: %s", wc.Dir())
	}

	var col *obs.Collection
	if *observe {
		col = &obs.Collection{SampleEvery: *sample}
	}

	srv := server.New(server.Config{
		QueueDepth: *queue,
		Pool:       runner.NewPool(*jobs),
		Quota:      server.QuotaConfig{RatePerSec: *quotaRate, Burst: *quotaBurst},
		Cache:      wc,
		Obs:        col,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())

	hs := &http.Server{Handler: srv}

	// SIGTERM/SIGINT cancels ctx; the AfterFunc then drains the job
	// service (bounded by -drain-timeout) and shuts the listener down,
	// which unblocks Serve below. No raw goroutines in package main —
	// the signal fan-in and the drain both ride the context machinery.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var drainFailed atomic.Bool
	context.AfterFunc(ctx, func() {
		log.Printf("signal received; draining (deadline %v)", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			drainFailed.Store(true)
			log.Printf("drain: %v", err)
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
	})

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	srv.Close()
	if drainFailed.Load() {
		log.Printf("drain deadline exceeded; exiting dirty")
		os.Exit(1)
	}
	log.Printf("drained; exiting")
}
