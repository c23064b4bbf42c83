// Command smappic-fleet runs experiment campaigns: declarative parameter
// sweeps expanded into independent simulation jobs, executed on a bounded
// worker pool with a content-addressed result cache, and aggregated into one
// deterministic report with a cloud cost estimate.
//
// Usage:
//
//	smappic-fleet -spec sweep.json [-workers N] [-cache dir] [-out prefix]
//	smappic-fleet -spec smoke            # builtin sweeps by name
//	smappic-fleet -list                  # show the builtin sweeps
//
// The spec is a JSON document (EXPERIMENTS.md, "Campaigns") or a builtin
// sweep's name. Completed jobs land in the cache keyed by a hash of their
// resolved parameters, so re-running a campaign — after an interrupt, a
// crash, or to regenerate reports — re-executes nothing. The aggregate report
// is byte-identical for any worker count and any mix of fresh and cached jobs.
//
// -checkpoint-every N makes in-flight IS jobs checkpoint their full
// simulation state into the cache directory every N simulated cycles, and
// lets a re-run pick interrupted jobs up mid-flight instead of from cycle 0
// — preemption-proof fleets: SIGKILL the campaign, run it again, and the
// aggregate is byte-identical to an uninterrupted one. A job runs once: a
// stall, a panic or a timeout is its outcome, and re-running it would only
// repeat it.
//
// -v streams structured job lifecycle events (started, cache_hit, resumed,
// done, failed, skipped) to stderr as they happen. -serve ADDR additionally
// starts the live dashboard (internal/obs): the fleet job queue at
// http://ADDR/, the same events over SSE at /api/events.
//
// -server URL submits the campaign to a resident smappic-fleetd instead of
// running it in-process: the spec is posted with the tenant identity
// (-tenant) and priority (-priority), progress streams back over SSE, and
// the reports fetched on completion are byte-identical to what the
// in-process run of the same spec would have written.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	"smappic/internal/campaign"
	"smappic/internal/experiments"
	"smappic/internal/fleetsrv"
	"smappic/internal/obs"
)

func main() {
	specArg := flag.String("spec", "", "campaign spec: a JSON file path or a builtin sweep name")
	list := flag.Bool("list", false, "list builtin sweeps and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent jobs (output is identical for any value)")
	cacheDir := flag.String("cache", ".smappic-cache", "result cache directory; empty disables caching")
	out := flag.String("out", "", "write <prefix>.json and <prefix>.csv aggregate reports")
	report := flag.Bool("report", false, "print the merged campaign-wide counter report")
	quick := flag.Bool("quick", false, "reduced problem sizes for builtin sweeps")
	timeout := flag.Float64("timeout", 0, "per-job wall-clock timeout in seconds (overrides the spec)")
	verbose := flag.Bool("v", false, "stream job lifecycle events to stderr")
	serve := flag.String("serve", "", "serve the live campaign dashboard on this address (e.g. 127.0.0.1:8080)")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "checkpoint in-flight IS jobs into the cache every N simulated cycles and resume interrupted ones mid-run (needs -cache; 0 = the spec's checkpoint_every, or off)")
	server := flag.String("server", "", "submit to a resident smappic-fleetd at this base URL instead of running in-process")
	tenant := flag.String("tenant", "", "tenant identity for -server submissions (default: the fleet's default tenant)")
	priority := flag.Int("priority", 0, "priority within the tenant's own backlog for -server submissions (higher first)")
	flag.Parse()

	if *list {
		fmt.Println("builtin sweeps:")
		for _, s := range experiments.BuiltinSpecs(*quick) {
			jobs, err := s.Jobs()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-14s %d points (%v on %v)\n", s.Name, len(jobs), s.Workloads, s.Shapes)
		}
		return
	}
	if *specArg == "" {
		fmt.Fprintln(os.Stderr, "smappic-fleet: -spec is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	spec, ok := experiments.BuiltinSpec(*specArg, *quick)
	if !ok {
		data, err := os.ReadFile(*specArg)
		if err != nil {
			fatal(fmt.Errorf("spec %q is neither a builtin sweep nor a readable file: %w", *specArg, err))
		}
		spec, err = campaign.ParseSpec(data)
		if err != nil {
			fatal(err)
		}
	}
	if *timeout != 0 {
		spec.TimeoutSec = *timeout
	}
	if *ckptEvery > 0 {
		spec.CheckpointEvery = *ckptEvery
	}
	if *server != "" {
		runRemote(*server, *tenant, *priority, spec, *out, *verbose)
		return
	}
	if spec.CheckpointEvery > 0 && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "smappic-fleet: checkpointing needs a cache directory (-cache)")
		os.Exit(2)
	}

	*workers = max(*workers, 1)
	runner := &campaign.Runner{
		Workers: *workers,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *cacheDir != "" {
		cache, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		runner.Cache = cache
	}

	var srv *obs.Server
	if *serve != "" {
		srv = obs.New()
		addr, err := srv.Start(*serve)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dashboard: http://%s/\n", addr)
	}
	if *verbose || srv != nil {
		var mu sync.Mutex // events arrive concurrently from workers
		verbosef := *verbose
		runner.OnEvent = func(ev campaign.Event) {
			if verbosef {
				mu.Lock()
				switch ev.Type {
				case campaign.EventDone:
					fmt.Fprintf(os.Stderr, "[%s] job %d/%d %s (%d cycles)\n",
						ev.Type, ev.Index, ev.Total, ev.Label, ev.Cycles)
				case campaign.EventFailed, campaign.EventSkipped:
					fmt.Fprintf(os.Stderr, "[%s] job %d/%d %s: %s\n",
						ev.Type, ev.Index, ev.Total, ev.Label, ev.Err)
				default:
					fmt.Fprintf(os.Stderr, "[%s] job %d/%d %s\n", ev.Type, ev.Index, ev.Total, ev.Label)
				}
				mu.Unlock()
			}
			if srv != nil {
				srv.CampaignEvent(ev)
			}
		}
	}

	// Ctrl-C cancels gracefully: in-flight jobs abort at their next event
	// batch, completed jobs stay cached, and the run exits with a partial
	// summary a re-run will resume from.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := runner.Run(ctx, spec)
	if err != nil {
		fatal(err)
	}
	if srv != nil {
		srv.Flush()
	}
	fmt.Print(res.Summary())
	fmt.Printf("  wall clock: %s with %d workers\n", res.Elapsed.Round(1_000_000), *workers)

	agg := res.Aggregate()
	if *out != "" {
		doc, err := agg.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out+".json", doc, 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out+".csv", []byte(agg.CSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  reports: %s.json, %s.csv\n", *out, *out)
	}
	if *report {
		fmt.Println()
		fmt.Print(agg.MergedReport())
	}
	if res.Failed > 0 || res.Skipped > 0 {
		os.Exit(1)
	}
}

// runRemote submits the campaign to a resident fleetd, streams progress,
// and writes the served reports — byte-identical to the in-process run's.
func runRemote(server, tenant string, priority int, spec campaign.Spec, out string, verbose bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl := &fleetsrv.Client{Server: server}
	sub, err := cl.Submit(ctx, tenant, priority, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "submitted %s: campaign %s, %d jobs (%d cached)\n",
		spec.Name, sub.CampaignID, sub.Jobs, sub.Cached)

	if verbose {
		go cl.Events(ctx, sub.CampaignID, func(event string, data []byte) {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", event, data)
		})
	}
	st, err := cl.Wait(ctx, sub.CampaignID, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("campaign %q on %s: %d points, %d done, %d failed\n",
		spec.Name, sub.CampaignID, st.Total, st.Done, st.Failed)

	if out != "" {
		doc, err := cl.Report(ctx, sub.CampaignID)
		if err != nil {
			fatal(err)
		}
		csv, err := cl.ReportCSV(ctx, sub.CampaignID)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out+".json", doc, 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out+".csv", csv, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  reports: %s.json, %s.csv\n", out, out)
	}
	if st.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smappic-fleet:", err)
	os.Exit(1)
}
