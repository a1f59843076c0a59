// Command aqeserver serves a TPC-H-loaded aqe database over HTTP/JSON
// (NDJSON streaming) and the length-prefixed binary protocol.
//
//	aqeserver -sf 0.05 -addr :8480 -binaddr :8481
//	curl -s localhost:8480/query -d '{"sql":"SELECT count(*) FROM lineitem"}'
//
// SIGINT/SIGTERM drain gracefully: in-flight queries finish (bounded by
// -draintimeout), new requests are refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aqe"
	"aqe/internal/server"
)

var (
	sfFlag      = flag.Float64("sf", 0.05, "TPC-H scale factor to load")
	addrFlag    = flag.String("addr", ":8480", "HTTP listen address ('' disables)")
	binAddrFlag = flag.String("binaddr", ":8481", "binary-protocol listen address ('' disables)")
	modeFlag    = flag.String("mode", "adaptive", "execution mode: adaptive|bytecode|native|optimized|ir-interp")
	workersFlag = flag.Int("workers", 0, "worker threads (0 = default)")
	maxqFlag    = flag.Int("maxq", 8, "max concurrent queries")
	perTenFlag  = flag.Int("max-per-tenant", 0, "max concurrent queries per tenant (0 = unlimited)")
	weightsFlag = flag.String("weights", "", "fair-share weights, e.g. gold=4,silver=2")
	timeoutFlag = flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
	drainFlag   = flag.Duration("draintimeout", 30*time.Second, "graceful-drain bound on shutdown")
	cacheFlag   = flag.Int64("cache", 64<<20, "plan-cache byte budget")
	readyFlag   = flag.Bool("ready-line", false, "print one READY line with the bound addresses")
	chunkFlag   = flag.Int("chunk", 256, "rows per streamed chunk")
)

func parseWeights(s string) map[string]int {
	if s == "" {
		return nil
	}
	w := map[string]int{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil || n < 1 {
			log.Fatalf("bad -weights entry %q (want tenant=N)", kv)
		}
		w[k] = n
	}
	return w
}

func main() {
	flag.Parse()
	mode, err := aqe.ParseMode(*modeFlag)
	if err != nil {
		log.Fatal(err)
	}
	db := aqe.Open(aqe.Options{
		Mode:                   mode,
		Workers:                *workersFlag,
		MaxConcurrent:          *maxqFlag,
		MaxConcurrentPerTenant: *perTenFlag,
		TenantWeights:          parseWeights(*weightsFlag),
		CacheBytes:             *cacheFlag,
	})
	log.Printf("loading TPC-H at SF %g ...", *sfFlag)
	t0 := time.Now()
	db.LoadTPCH(*sfFlag)
	log.Printf("loaded in %v", time.Since(t0).Round(time.Millisecond))

	srv := server.New(server.Options{
		DB:             db,
		DefaultTimeout: *timeoutFlag,
		ChunkRows:      *chunkFlag,
	})

	errc := make(chan error, 2)
	var httpAddr, binAddr string
	if *addrFlag != "" {
		ln, err := net.Listen("tcp", *addrFlag)
		if err != nil {
			log.Fatalf("http listen: %v", err)
		}
		httpAddr = ln.Addr().String()
		log.Printf("http on %s", httpAddr)
		go func() { errc <- srv.ServeHTTP(ln) }()
	}
	if *binAddrFlag != "" {
		ln, err := net.Listen("tcp", *binAddrFlag)
		if err != nil {
			log.Fatalf("binary listen: %v", err)
		}
		binAddr = ln.Addr().String()
		log.Printf("binary on %s", binAddr)
		go func() { errc <- srv.ServeBinary(ln) }()
	}
	if httpAddr == "" && binAddr == "" {
		log.Fatal("both -addr and -binaddr disabled; nothing to serve")
	}
	if *readyFlag {
		fmt.Printf("READY http=%s bin=%s\n", httpAddr, binAddr)
		os.Stdout.Sync()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%v: draining (up to %v) ...", s, *drainFlag)
		ctx, cancel := context.WithTimeout(context.Background(), *drainFlag)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain: %v", err)
			os.Exit(1)
		}
		log.Print("drained")
	case err := <-errc:
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
	}
}
