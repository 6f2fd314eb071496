// Command mhsd is the long-lived multihop scheduler daemon: it loads a
// fabric, runs the epoch pipeline continuously (each epoch planned a
// measured lead before its boundary), and serves the flow-submission API
// plus the observability endpoints over HTTP until interrupted. SIGINT or
// SIGTERM cancels the serving context: daemon.Server.Run stops accepting,
// lets in-flight requests finish and drains the backlog (bounded by
// -drain-timeout) before mhsd exits; a second signal kills it at once.
//
// API sketch (see README "Running as a service" for examples):
//
//	POST   /v1/flows             submit one flow or a JSON array of flows
//	GET    /v1/flows             queue/backlog/totals summary
//	DELETE /v1/flows/{id}        cancel a submitted flow
//	GET    /v1/flows/{id}/events per-flow lifecycle journal (flight recorder)
//	GET    /v1/epochs            recent epoch records + run totals
//	GET    /v1/status            operational roll-up: epoch, ψ, SLOs, plan p50/p99 and lead
//	GET    /v1/fabric            current fabric
//	POST   /v1/fabric            replace the fabric at the next epoch boundary
//	GET    /metrics              Prometheus text metrics (plus /debug/vars, /debug/pprof)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"octopus/internal/buildinfo"
	"octopus/internal/core"
	"octopus/internal/daemon"
	"octopus/internal/obs"
	"octopus/internal/obs/flight"
	"octopus/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mhsd:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: it parses args with its
// own FlagSet and writes only to the given writers.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mhsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:9077", "HTTP listen address (use :0 for an ephemeral port)")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using -addr :0)")
		n            = fs.Int("n", 24, "number of network nodes")
		deg          = fs.Int("deg", 0, "partial fabric with this out-degree per node (0 = complete)")
		seed         = fs.Int64("seed", 1, "RNG seed for the partial-fabric generator")
		window       = fs.Int("window", 1000, "window W in time slots")
		delta        = fs.Int("delta", 20, "reconfiguration delay Δ in time slots")
		ports        = fs.Int("ports", 1, "input/output ports per node")
		epoch        = fs.Duration("epoch", 100*time.Millisecond, "wall-clock duration of one epoch")
		queueLimit   = fs.Int("queue-limit", 1<<20, "max packets queued awaiting admission before submissions get 429")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "max time to drain the backlog on shutdown")
		audit        = fs.Bool("audit", true, "verify every epoch plan against the fabric before committing it")
		fingerprints = fs.Bool("fingerprints", false, "attach schedule fingerprints to /v1/epochs records")
		traceOut     = fs.String("trace-out", "", "write the JSONL decision trace to this file")
		flightOn     = fs.Bool("flight", true, "record per-flow lifecycle events (GET /v1/flows/{id}/events, /v1/status SLOs)")
		flightSample = fs.Int("flight-sample", 1, "flight recorder: track one flow in N (1 = every flow)")
		flightCap    = fs.Int("flight-cap", 1<<16, "flight recorder: the most events the ring keeps; it grows to this bound as events arrive")
		sloEpochs    = fs.Int("slo-epochs", 0, "flight recorder: completion SLO in epochs (0 = every completion on time)")
		version      = fs.Bool("version", false, "print the version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Print(stdout, "mhsd")
		return nil
	}
	// A flag nothing reads is refused, not ignored: -flight=false builds no
	// recorder, and a complete fabric (-deg 0) draws nothing from the seed.
	off := map[string]bool{"flight-sample": !*flightOn, "flight-cap": !*flightOn, "slo-epochs": !*flightOn, "seed": *deg == 0}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if off[f.Name] {
			unread = append(unread, "-"+f.Name)
		}
	})
	if unread != nil {
		return fmt.Errorf("nothing reads %s: the recorder's flags need -flight, -seed needs -deg > 0", strings.Join(unread, " "))
	}

	fabric, err := traffic.Scenario{N: *n, Deg: *deg}.Fabric(rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}

	var tracer *obs.Tracer
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		tracer = obs.NewTracer(f)
	}

	// The registry is built here (rather than defaulted inside the daemon)
	// so the flight recorder's SLO mirrors land on the same /metrics page.
	reg := obs.NewRegistry()
	var recorder *flight.Recorder
	if *flightOn {
		recorder = flight.New(flight.Config{
			Sample:    *flightSample,
			Cap:       *flightCap,
			SLOEpochs: *sloEpochs,
			Metrics:   reg,
		})
	}

	s, err := daemon.New(daemon.Options{
		Fabric:           fabric,
		Core:             core.Options{Window: *window, Delta: *delta, Ports: *ports},
		EpochDuration:    *epoch,
		QueueLimit:       *queueLimit,
		DrainTimeout:     *drainTimeout,
		Audit:            *audit,
		FingerprintPlans: *fingerprints,
		Registry:         reg,
		Tracer:           tracer,
		Flight:           recorder,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	// SIGINT or SIGTERM starts the graceful drain. Once stop has run, a
	// second signal kills the process, so a stuck shutdown can still be
	// interrupted. Registered before -addr-file announces the address.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stdout, "mhsd: serving on http://%s (fabric: %d nodes, %d links; window %d, Δ %d, epoch %v)\n",
		ln.Addr(), fabric.N(), fabric.M(), *window, *delta, *epoch)

	err = s.Run(ctx, ln)
	if traceFile != nil {
		if terr := traceFile.Close(); err == nil {
			err = terr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "mhsd: shutdown complete")
	return nil
}
