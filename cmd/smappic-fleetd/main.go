// Command smappic-fleetd is the resident fleet campaign server: it accepts
// campaign specs from many tenants over HTTP/JSON, expands them onto a
// persistent tenant-aware queue, and schedules the jobs across
// smappic-worker processes with a lease/heartbeat protocol. Workers that die
// mid-job lose their lease; the job re-queues and — when workers share the
// cache directory — resumes from the dead worker's last checkpoint.
//
// Usage:
//
//	smappic-fleetd -addr :9090 -cache /shared/cache [-state /var/lib/fleetd]
//	               [-lease-ttl 30] [-default-quota 0] [-quota tenant=N]...
//
// Submit with `smappic-fleet -server http://host:9090 -spec sweep.json`,
// execute with `smappic-worker -server http://host:9090`. The aggregate
// report a campaign yields is byte-identical to running the same spec
// in-process with smappic-fleet alone — worker count, scheduling, failures
// and cache mix never leak into results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smappic/internal/campaign"
	"smappic/internal/fleetsrv"
)

// quotaFlags collects repeated -quota tenant=N flags.
type quotaFlags map[string]int

func (q quotaFlags) String() string { return fmt.Sprint(map[string]int(q)) }

func (q quotaFlags) Set(v string) error {
	name, num, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want tenant=N, got %q", v)
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return fmt.Errorf("bad quota %q: %w", num, err)
	}
	q[name] = n
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address")
	cacheDir := flag.String("cache", ".smappic-cache", "shared content-addressed result cache directory")
	stateDir := flag.String("state", "", "persist campaigns here so a restarted server resumes them (empty: in-memory only)")
	leaseTTL := flag.Float64("lease-ttl", fleetsrv.DefaultLeaseTTL.Seconds(), "seconds a worker may go without a heartbeat before its jobs re-queue")
	defQuota := flag.Int("default-quota", 0, "default per-tenant concurrent-lease quota (0 = unlimited)")
	quotas := quotaFlags{}
	flag.Var(quotas, "quota", "per-tenant quota override as tenant=N (repeatable; 0 = unlimited)")
	verbose := flag.Bool("v", false, "log protocol events to stderr")
	flag.Parse()

	cache, err := campaign.OpenCache(*cacheDir)
	if err != nil {
		fatal(err)
	}
	srv := fleetsrv.New(cache)
	srv.StateDir = *stateDir
	srv.LeaseTTL = time.Duration(*leaseTTL * float64(time.Second))
	srv.SetDefaultQuota(*defQuota)
	if *verbose {
		srv.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fleetd: "+format+"\n", args...)
		}
	}
	for tenant, n := range quotas {
		srv.SetQuota(tenant, n)
	}
	if err := srv.Load(); err != nil {
		fatal(err)
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fleetd: serving on http://%s/ (cache %s)\n", bound, *cacheDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smappic-fleetd:", err)
	os.Exit(1)
}
