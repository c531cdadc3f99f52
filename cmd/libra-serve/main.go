// Command libra-serve is the online inference service (§7 deployment
// story): it loads a classifier persisted by libra-train -o and answers
// per-link adaptation queries over HTTP/JSON, coalescing concurrent
// requests into the forest's batch path, hot-swapping models atomically via
// POST /models, and shedding overload with 429. See DESIGN.md §9.
//
// Usage:
//
//	libra-serve [-addr :8060] [-binary-addr :8061] [-model FILE]
//	            [-shards N] [-max-batch N] [-queue-depth N] [-timeout D]
//	            [-audit-out FILE] [-audit-sample N]
//	            [-drift-profile FILE] [-drift-window N]
//
// The decide plane is sharded: -shards coalescers behind a consistent-hash
// router keyed on link ID, all sharing one registry (a hot-swap reaches
// every shard atomically). -binary-addr additionally serves the pipelined
// binary decide protocol (DESIGN.md §9) on the same shards; HTTP stays up
// as the control plane. Every loaded forest is compiled to the quantized
// flat representation (ml.QuantForest), the one form the decide path
// serves; /models lists it as random-forest-q32.
//
// -audit-out streams every served decision (1-in-N sampled by
// -audit-sample, deterministically on request identity) into a checksummed
// LDL1 audit log (DESIGN.md §8); ground truth posted to /v1/feedback or the
// binary feedback frame lands in the same stream. -drift-profile attaches a
// live drift monitor fed from the audit drain: per-feature PSI/KS and
// action-shift gauges against the training reference profile emitted by
// libra-train -profile-out, windowed every -drift-window decisions.
//
// Without -model the server starts not-ready (/readyz 503) and waits for
// the first POST /models. SIGINT/SIGTERM drain gracefully: the listeners
// stop, in-flight decisions complete, then the process exits 0.
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
	"syscall"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/obs/drift"
	"github.com/libra-wlan/libra/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-serve: ")
	addr := flag.String("addr", ":8060", "HTTP listen address")
	binaryAddr := flag.String("binary-addr", "", "binary decide protocol listen address (empty disables)")
	model := flag.String("model", "", "libra-model artifact to serve at startup (libra-train -o)")
	shards := flag.Int("shards", 1, "coalescer shards behind the consistent-hash router")
	maxBatch := flag.Int("max-batch", 64, "largest coalesced model invocation")
	queueDepth := flag.Int("queue-depth", 1024, "admission queue bound; beyond it requests shed with 429")
	timeout := flag.Duration("timeout", 2*time.Second, "default per-request deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown budget on SIGINT/SIGTERM")
	auditOut := flag.String("audit-out", "", "write the per-decision LDL1 audit log to this file")
	auditSample := flag.Uint64("audit-sample", 1, "deterministic 1-in-N audit sampling divisor (1 keeps every decision)")
	driftProfile := flag.String("drift-profile", "", "training reference profile (libra-train -profile-out) for live drift monitoring; requires -audit-out")
	driftWindow := flag.Int("drift-window", 1024, "decision records per drift window")
	oc := obs.RegisterCLI(flag.CommandLine)
	flag.Parse()
	if err := oc.Start(); err != nil {
		log.Fatal(err)
	}

	reg := serve.NewRegistry()
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			log.Fatal(err)
		}
		m, err := reg.Load(*model, f)
		f.Close()
		if err != nil {
			log.Fatalf("loading %s: %v", *model, err)
		}
		log.Printf("serving model #%d (%s) from %s", m.ID, m.Name, m.Source)
	} else {
		log.Printf("no -model: starting not-ready, waiting for POST /models")
	}

	s := serve.New(reg, serve.Config{
		Coalescer: serve.CoalescerConfig{
			MaxBatch:   *maxBatch,
			QueueDepth: *queueDepth,
		},
		Shards:         *shards,
		DefaultTimeout: *timeout,
	})

	var auditLog *decisionlog.Log
	if *auditOut != "" {
		var onRecord func(*decisionlog.Record)
		if *driftProfile != "" {
			prof, err := drift.LoadFile(*driftProfile, dataset.NumFeatures)
			if err != nil {
				log.Fatalf("loading %s: %v", *driftProfile, err)
			}
			mon, err := drift.NewMonitor(drift.Config{Profile: prof, WindowRecords: *driftWindow})
			if err != nil {
				log.Fatal(err)
			}
			onRecord = mon.Observe
			log.Printf("drift monitor armed against profile %q (window %d)", prof.Name, *driftWindow)
		}
		f, err := os.Create(*auditOut)
		if err != nil {
			log.Fatal(err)
		}
		auditLog, err = decisionlog.New(f, decisionlog.Config{
			NFeat:    dataset.NumFeatures,
			Rings:    *shards,
			Sample:   *auditSample,
			OnRecord: onRecord,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		s.Router().SetAudit(auditLog)
		log.Printf("audit stream on %s (1-in-%d sampling, %d rings)", *auditOut, max(*auditSample, 1), *shards)
	} else if *driftProfile != "" {
		log.Fatal("-drift-profile requires -audit-out (the monitor taps the audit drain)")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	var binSrv *serve.BinaryServer
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (%d shards)", *addr, *shards)
		errc <- httpSrv.ListenAndServe()
	}()
	if *binaryAddr != "" {
		ln, err := net.Listen("tcp", *binaryAddr)
		if err != nil {
			log.Fatal(err)
		}
		binSrv = serve.NewBinaryServer(s.Router(), 0)
		go func() {
			log.Printf("binary protocol on %s", *binaryAddr)
			if err := binSrv.Serve(ln); err != nil {
				log.Printf("binary listener: %v", err)
			}
		}()
	}

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight handlers finish (their
	// queued decisions are answered by the coalescer), then stop the
	// dispatcher.
	log.Printf("signal received, draining (budget %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if binSrv != nil {
		binSrv.Close()
	}
	s.Close()
	// The audit log closes only after every producer (HTTP handlers, binary
	// connections, the coalescer shards) has drained: Close flushes the rings,
	// writes the footer checksums, and seals the file.
	if auditLog != nil {
		if err := auditLog.Close(); err != nil {
			log.Printf("audit log: %v", err)
		} else if d := auditLog.Drops(); d > 0 {
			log.Printf("audit log sealed with %d ring drops", d)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("listener: %v", err)
	}
	if err := oc.Stop(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
