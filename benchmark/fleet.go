package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smappic/internal/campaign"
	"smappic/internal/fleetsrv"
)

const (
	fleetWorkers = 2
	// waitPoll is how often a tenant asks whether its campaign is done. It
	// is far below a cold campaign's length, so polling does not quantise
	// the measurement; the workers keep their default idle poll.
	waitPoll = 20 * time.Millisecond
	// unitTimeout bounds one campaign, so a wedged service fails the run
	// instead of hanging it (a cold campaign takes ~4 s here).
	unitTimeout = 90 * time.Second
)

var fleetTenants = []string{"alice", "bob"}

// fleet is one in-process fleet service: server on real loopback HTTP with
// a state directory and a result cache on disk, and two workers.
type fleet struct {
	b      *bench
	cached bool // fleet-cached: resubmit the warm-up spec instead of fresh ones

	dir     string
	srv     *fleetsrv.Server
	client  *fleetsrv.Client
	stop    context.CancelFunc
	workers sync.WaitGroup
	// tr is where spans go: the tracer during the traced stretch, nil
	// otherwise. The workers read it from their own goroutines.
	tr       atomic.Pointer[tracer]
	next     int // fresh-spec counter: every campaign gets seeds of its own
	setups   int
	warmSpec campaign.Spec
	warmRep  []byte // the served report of the warm-up campaign
	// warm is warmRep decoded, and what it delivers: a cached resubmit that
	// is byte-identical to it is verified by one compare, without decoding.
	warm       campaign.Aggregate
	warmPoints int
	warmCycles uint64
	loadMS     float64
}

func newFleetCold(b *bench) instance   { return &fleet{b: b} }
func newFleetCached(b *bench) instance { return &fleet{b: b, cached: true} }

// spec returns the n-th sweep of this run: shapes x NUMA{t,f} x seeds, IS.
// The seeds derive from -seed and n, so no two specs of a run (or of two
// runs with different seeds) share a point and every point misses the cache.
func (f *fleet) spec(n int) campaign.Spec {
	s := campaign.Spec{
		Name:      fmt.Sprintf("bench-%d", n),
		Shapes:    f.b.sz.fleetShapes,
		Workloads: []string{campaign.WorkloadIS},
		NUMA:      []bool{true, false},
		Keys:      f.b.sz.fleetKeys,
	}
	base := f.b.opt.seed*1_000_000 + uint64(n*f.b.sz.fleetSeeds)
	for i := 0; i < f.b.sz.fleetSeeds; i++ {
		s.Seeds = append(s.Seeds, base+uint64(i)+1)
	}
	return s
}

func (f *fleet) freshSpec() campaign.Spec {
	f.next++
	return f.spec(f.next)
}

func (f *fleet) setup() error {
	f.setups++
	f.dir = filepath.Join(f.b.dir, fmt.Sprintf("fleet-%d", f.setups))
	cacheDir := filepath.Join(f.dir, "cache")
	cache, err := campaign.OpenCache(cacheDir)
	if err != nil {
		return err
	}
	f.srv = fleetsrv.New(cache)
	f.srv.StateDir = filepath.Join(f.dir, "state")
	if err := f.srv.Load(); err != nil {
		return err
	}
	addr, err := f.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	f.client = &fleetsrv.Client{Server: "http://" + addr}
	if f.b.opt.trace {
		// Worker has no transport hook and uses http.DefaultClient, so a
		// traced run times requests there, from before the workers start
		// until they have stopped.
		http.DefaultClient.Transport = spanTransport{tr: f.tr.Load, base: http.DefaultTransport}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	for i := 0; i < fleetWorkers; i++ {
		w := &fleetsrv.Worker{Server: f.client.Server, Name: fmt.Sprintf("bench-worker-%d", i), CacheDir: cacheDir}
		if f.b.opt.trace {
			w.Exec = f.exec
		}
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				// Not stopped by teardown: the worker could not register. Its
				// campaigns then run into unitTimeout and count as failed.
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			}
		}()
	}
	// The warm-up campaign; for fleet-cached it is also the cold populate.
	f.warmSpec = f.freshSpec()
	var st *fleetsrv.CampaignStatus
	f.warmRep, st, err = f.serve(fleetTenants[0], f.warmSpec, 0)
	if err != nil {
		return err
	}
	f.warm = campaign.Aggregate{}
	if err := json.Unmarshal(f.warmRep, &f.warm); err != nil {
		return fmt.Errorf("warm-up campaign %s: report: %w", st.CampaignID, err)
	}
	f.warmPoints, f.warmCycles = delivered(&f.warm)
	if want := f.points(); f.warmPoints != want {
		return fmt.Errorf("warm-up campaign %s delivered %d sorted points of %d (%d failed)", st.CampaignID, f.warmPoints, want, st.Failed)
	}
	return nil
}

// points is how many sweep points every spec of this run expands to.
func (f *fleet) points() int { return len(f.b.sz.fleetShapes) * 2 * f.b.sz.fleetSeeds }

func (f *fleet) teardown() {
	if f.srv == nil {
		return
	}
	f.stop()
	f.workers.Wait()
	if f.b.opt.trace {
		http.DefaultClient.Transport = nil
	}
	f.srv.Close()
	f.srv = nil
}

// exec is what the workers of a traced run execute for each leased job: the
// real simulator inside a span. The specs here use no checkpoint or
// warm-start policy, so it runs exactly what the nil Worker.Exec of an
// untraced run does.
func (f *fleet) exec(ctx context.Context, p campaign.Params) (*campaign.Result, error) {
	tr := f.tr.Load()
	id := tr.begin("campaign.Execute", 0)
	defer tr.end(id)
	return campaign.Execute(ctx, p)
}

// serve is one closed-loop unit: Submit, Wait, Report.
func (f *fleet) serve(tenant string, spec campaign.Spec, root int) (report []byte, st *fleetsrv.CampaignStatus, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), unitTimeout)
	defer cancel()
	tr := f.tr.Load()
	call := func(name string, fn func(context.Context) error) error {
		id := tr.begin(name, root)
		defer tr.end(id)
		return fn(withParent(ctx, id))
	}
	var sub *fleetsrv.SubmitResponse
	if err = call("Client.Submit", func(ctx context.Context) (err error) {
		sub, err = f.client.Submit(ctx, tenant, 0, spec)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err = call("Client.Wait", func(ctx context.Context) (err error) {
		st, err = f.client.Wait(ctx, sub.CampaignID, waitPoll)
		return err
	}); err != nil {
		return nil, nil, err
	}
	err = call("Client.Report", func(ctx context.Context) (err error) {
		report, err = f.client.Report(ctx, sub.CampaignID)
		return err
	})
	return report, st, err
}

// delivered returns how many points of a report have a sorted output, and
// their simulated cycles.
func delivered(agg *campaign.Aggregate) (points int, cycles uint64) {
	for _, r := range agg.Results {
		if r.Sorted {
			points++
			cycles += r.RunCycles
		}
	}
	return points, cycles
}

func (f *fleet) measure(tr *tracer, budget time.Duration) phase {
	f.tr.Store(tr)
	defer f.tr.Store(nil)

	var mu sync.Mutex // guards the bench counters and the totals below
	var ph phase
	var points, done int
	var cycles uint64
	// The server keeps every campaign it has served, so its memory grows
	// with throughput; peak_rss_mb is read once the guaranteed units are
	// done, the same amount of work on any host.
	rssAt := f.b.sz.coldUnits * len(fleetTenants)
	if f.cached {
		rssAt = f.b.sz.cachedUnits
	}
	// unit serves one campaign for a tenant and verifies it.
	unit := func(tenant string, spec campaign.Spec) time.Duration {
		root := tr.begin("campaign", 0)
		start := time.Now()
		report, _, err := f.serve(tenant, spec, root)
		wall := time.Since(start)
		tr.end(root)
		mu.Lock()
		defer mu.Unlock()
		// Every point of the sweep is one verified output: present in the
		// served report, not failed, its sort sorted. A cached resubmit
		// must reproduce the cold report byte for byte.
		var p int
		var c uint64
		switch {
		case err != nil:
		case f.cached && bytes.Equal(report, f.warmRep):
			p, c = f.warmPoints, f.warmCycles
		case !f.cached:
			var agg campaign.Aggregate
			if json.Unmarshal(report, &agg) == nil { // a report that does not parse delivers nothing
				p, c = delivered(&agg)
			}
		}
		for i := 0; i < f.points(); i++ {
			f.b.check(i < p, "campaign of %s: %d of %d points served correctly (err %v)", tenant, p, f.points(), err)
		}
		points += p
		cycles += c
		if done++; done == rssAt {
			f.b.rssMB = peakRSSMB()
		}
		return wall
	}

	start := time.Now()
	if f.cached {
		// One closed loop, alternating tenants, every point answered from
		// the cache at submit.
		n := 0
		ph.units = loop(budget, f.b.sz.cachedUnits, func() time.Duration {
			n++
			return unit(fleetTenants[n%len(fleetTenants)], f.warmSpec)
		})
	} else {
		// One closed loop per tenant, each submitting fresh sweeps.
		var wg sync.WaitGroup
		for _, tenant := range fleetTenants {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				units := loop(budget, f.b.sz.coldUnits, func() time.Duration {
					mu.Lock()
					spec := f.freshSpec()
					mu.Unlock()
					return unit(tenant, spec)
				})
				mu.Lock()
				ph.units = append(ph.units, units...)
				mu.Unlock()
			}(tenant)
		}
		wg.Wait()
	}
	ph.wall = time.Since(start).Seconds()
	// Throughput from the median campaign: the loops run side by side, and
	// every campaign delivers the same points (the average counts a failed
	// one as delivering less).
	loops := 1
	if !f.cached {
		loops = len(fleetTenants)
	}
	campaignsPerS := float64(loops) / median(ph.units)
	ph.pointsPerS = campaignsPerS * float64(points) / float64(len(ph.units))
	ph.cyclesPerS = campaignsPerS * float64(cycles) / float64(len(ph.units))
	return ph
}

// finish byte-compares the warm-up campaign's served report with the
// in-process campaign.Runner's, computed against a cache of its own (so
// every point is simulated a second time, independently); a traced run also
// times Server.Load over the state directory the run left.
func (f *fleet) finish() (map[string]uint64, string) {
	refCache, err := campaign.OpenCache(filepath.Join(f.dir, "ref-cache"))
	if err != nil {
		f.b.check(false, "reference cache: %v", err)
		return nil, ""
	}
	runner := &campaign.Runner{Workers: fleetWorkers, Cache: refCache}
	res, err := runner.Run(context.Background(), f.warmSpec)
	var ref []byte
	if err == nil {
		ref, err = res.Aggregate().JSON()
	}
	f.b.check(err == nil && bytes.Equal(ref, f.warmRep),
		"served report of %s differs from the in-process Runner's (err %v)", f.warmSpec.Name, err)

	if f.b.opt.trace {
		// Replay the journal of the whole run into a second server.
		start := time.Now()
		again := fleetsrv.New(f.srv.Cache)
		again.StateDir = f.srv.StateDir
		if err := again.Load(); err != nil {
			f.b.check(false, "journal replay: %v", err)
		}
		f.loadMS = time.Since(start).Seconds() * 1e3
	}

	counts := countsFrom(f.warm.MergedCounters)
	counts["sim.cycles"] = f.warmCycles
	return counts, ""
}

func (f *fleet) layerMetrics(tr *tracer, traced phase) map[string]float64 {
	us := func(ds []time.Duration, q float64) float64 { return quantile(seconds(ds), q) * 1e6 }
	httpTo := func(suffix string) func(string) bool {
		return func(n string) bool { return strings.HasPrefix(n, "http ") && strings.HasSuffix(n, suffix) }
	}
	lease := tr.durations(httpTo("/api/workers/lease"))
	result := tr.durations(httpTo("/api/workers/result"))
	all := tr.durations(httpTo(""))
	loops := float64(fleetWorkers + len(fleetTenants))
	if f.cached {
		loops = fleetWorkers + 1
	}
	return map[string]float64{
		"fleetsrv.lease_p50_us":  us(lease, 0.5),
		"fleetsrv.lease_p95_us":  us(lease, 0.95),
		"fleetsrv.result_p50_us": us(result, 0.5),
		"fleetsrv.result_p95_us": us(result, 0.95),
		"fleetsrv.submit_p50_ms": us(tr.durations(named("Client.Submit")), 0.5) / 1e3,
		"fleetsrv.report_p50_ms": us(tr.durations(named("Client.Report")), 0.5) / 1e3,
		"fleetsrv.requests":      float64(len(all)),
		// Share of the closed loops' time (workers and tenants) spent
		// inside HTTP requests.
		"fleetsrv.http_busy_share": sum(seconds(all)) / (traced.wall * loops),
		// Share of the workers' time spent simulating; the rest is the
		// control plane's own time plus idle polling.
		"campaign.execute_busy_share": sum(seconds(tr.durations(named("campaign.Execute")))) / (traced.wall * fleetWorkers),
		"fleetsrv.journal_load_ms":    f.loadMS,
	}
}
