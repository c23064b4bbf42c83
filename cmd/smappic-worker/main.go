// Command smappic-worker is the fleet's remote executor: it registers with a
// smappic-fleetd server, leases jobs one at a time, runs each through the
// same execution engine the in-process campaign runner uses (a per-job
// timeout and periodic checkpointing), heartbeats while working, and posts
// results back.
//
// Usage:
//
//	smappic-worker -server http://host:9090 [-cache /shared/cache] [-name NAME]
//
// Point -cache at the same directory the server uses (a shared filesystem)
// and a job re-leased from a dead worker resumes that worker's last periodic
// checkpoint instead of restarting from cycle 0. Kill a worker any way you
// like — the server re-queues its jobs when the heartbeat lapses, and the
// campaign's aggregate report is unchanged.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smappic/internal/fleetsrv"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:9090", "fleet server base URL")
	cacheDir := flag.String("cache", "", "shared checkpoint/cache directory (same filesystem as the server's -cache for checkpoint resume)")
	name := flag.String("name", hostname(), "worker label shown in fleet status")
	poll := flag.Float64("poll", 0.2, "idle re-poll interval in seconds")
	verbose := flag.Bool("v", false, "log lease lifecycle to stderr")
	flag.Parse()

	w := &fleetsrv.Worker{
		Server:   *server,
		Name:     *name,
		CacheDir: *cacheDir,
		Poll:     time.Duration(*poll * float64(time.Second)),
	}
	if *verbose {
		w.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "worker: "+format+"\n", args...)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "smappic-worker:", err)
		os.Exit(1)
	}
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}
