// Command amnesiaserve runs an amnesiadb HTTP server.
//
//	amnesiaserve -addr :8080 -seed 1 -max-queries 64 -cache-entries 256
//	amnesiaserve -addr :8080 -dir /var/lib/amnesiadb -fsync always
//
// Endpoints (see internal/server): POST /query, POST /insert,
// POST /policy, POST /partitioned, GET /stats, GET /tables,
// GET /precision, GET /healthz.
//
//	curl -s localhost:8080/insert -d '{"table":"t","create":["a"],"columns":{"a":[1,2,3]}}'
//	curl -s localhost:8080/policy -d '{"table":"t","strategy":"fifo","budget":2}'
//	curl -s localhost:8080/query  -d '{"sql":"SELECT COUNT(*) FROM t"}'
//	curl -s localhost:8080/healthz
//
// With -dir the catalog is durable: recovery (snapshot restore + WAL
// replay) runs before the listener opens, every mutation is
// acknowledged only after its WAL batch reaches disk per -fsync, and a
// persistence failure degrades the instance to read-only (mutations
// answer 503 + Retry-After, /healthz reports degraded). A background
// probe re-verifies the WAL directory with exponential backoff and
// restores write service without a restart once it is healthy; see
// docs/ROBUSTNESS.md. Without -dir the database is in-memory, as
// before.
//
// Per-query resource limits: -max-query-bytes budgets each query's
// pooled memory (over-budget queries answer 413, neighbors unaffected)
// and -max-query-ms bounds wall time (408). Under GOMEMLIMIT the
// governor additionally sheds the most expensive in-flight query when
// total charged bytes cross the high-water mark.
//
// Queries execute on a shared worker pool (GOMAXPROCS wide by default),
// so engine concurrency stays bounded no matter how many clients
// connect; -max-queries bounds concurrently executing queries, with a
// bounded wait queue beyond which requests are shed with 429 and a
// Retry-After header. It reaches only the server's admission control
// (server.Config); the library itself never queues. SIGINT/SIGTERM
// starts a graceful drain: new queries get 503, in-flight ones finish
// (up to -write-timeout), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"amnesiadb"
	"amnesiadb/internal/durability/failpoint"
	"amnesiadb/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		seed         = flag.Uint64("seed", 1, "seed for amnesia decisions")
		dir          = flag.String("dir", "", "durable data directory; empty = in-memory")
		fsync        = flag.String("fsync", "group", "WAL fsync policy with -dir: always | group | off")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute, "max time to stream one response; a query stream that projects lazily holds its table read lock until the response finishes, so this bounds how long a stalled client can block writers")
		maxQueries   = flag.Int("max-queries", 64, "queries allowed to execute concurrently before new arrivals queue; 0 = unlimited")
		queueDepth   = flag.Int("queue-depth", 0, "queued queries beyond which arrivals are shed with 429; 0 = 2x max-queries")
		cacheEntries = flag.Int("cache-entries", 256, "result-cache capacity (small materialized results, invalidated by mutation epochs); 0 disables")
		poolSize     = flag.Int("pool", 0, "engine worker-pool width: 0 = shared GOMAXPROCS pool, n>0 = dedicated pool of n workers")
		maxQueryB    = flag.Int64("max-query-bytes", 0, "per-query memory budget: pooled batches, join build tables and sort runs charge it; an over-budget query fails alone with 413 while its neighbors keep running; 0 = unlimited")
		maxQueryMS   = flag.Int64("max-query-ms", 0, "per-query deadline in milliseconds, enforced at morsel boundaries (expired queries answer 408); 0 = none")
		stallDetach  = flag.Duration("stall-detach", 0, "how long a stalled streaming consumer may hold the scan: once a chunk waits this long for the consumer, the rest of the stream is buffered and the query's table read locks are released; 0 = default (1s), negative = never")
	)
	flag.Parse()

	// Fault injection for the crash/recovery suites; a no-op unless
	// AMNESIADB_FAILPOINTS is set.
	if err := failpoint.ArmFromEnv(); err != nil {
		log.Fatalf("failpoints: %v", err)
	}

	opts := amnesiadb.Options{
		Seed:             *seed,
		PoolSize:         *poolSize,
		CacheEntries:     *cacheEntries,
		Fsync:            *fsync,
		MaxQueryBytes:    *maxQueryB,
		MaxQueryDuration: time.Duration(*maxQueryMS) * time.Millisecond,
		StallDetach:      *stallDetach,
	}
	var db *amnesiadb.DB
	if *dir != "" {
		start := time.Now()
		var err error
		db, err = amnesiadb.OpenDir(*dir, opts)
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		fmt.Printf("amnesiaserve recovered %s in %dms (fsync=%s)\n", *dir, time.Since(start).Milliseconds(), *fsync)
	} else {
		db = amnesiadb.Open(opts)
	}
	defer db.Close()
	h := server.NewConfigured(db, server.Config{MaxQueries: *maxQueries, QueueDepth: *queueDepth})
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      *writeTimeout,
	}

	// Listen explicitly so ":0" resolves to a real port before the ready
	// line prints — the crash-kill harness (and humans scripting
	// against ephemeral ports) parse it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("amnesiaserve listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful drain: refuse new queries first, then let http.Server
	// wait out in-flight responses, bounded by the same budget a single
	// stalled stream gets.
	fmt.Println("amnesiaserve draining...")
	h.StartDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *writeTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	fmt.Println("amnesiaserve stopped")
}
