// Non-perturbation proof for the observability server: the golden fixtures
// under testdata/ must be reproduced byte-for-byte with the dashboard server
// attached and actively serving clients during the run. These tests share
// the fixtures with goldens_test.go and never pass -update — if observation
// changed the simulation in any way, the bytes would drift.
package smappic_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"smappic"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/obs"
	"smappic/internal/rvasm"
	"smappic/internal/workload"
)

// hammer polls /api/metrics from several goroutines until stop is closed,
// checking every response parses. Returns a join function.
func hammer(t *testing.T, url string, stop chan struct{}) func() {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url + "/api/metrics")
				if err != nil {
					return
				}
				var doc map[string]any
				err = json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if err != nil {
					// The caller's CloseClientConnections may cut a body
					// short; that is a failure only while the run is going.
					select {
					case <-stop:
					default:
						t.Errorf("mid-run metrics not valid JSON: %v", err)
					}
					return
				}
			}
		}()
	}
	return wg.Wait
}

// TestGoldenQuickstartWithServer re-runs the quickstart golden with the
// observability server publishing at every window barrier (throttle off)
// while HTTP clients poll it.
func TestGoldenQuickstartWithServer(t *testing.T) {
	cfg := smappic.DefaultConfig(1, 1, 2)
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := obs.New()
	srv.MinPublishInterval = 0
	srv.ObservePrototype(p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stop := make(chan struct{})
	join := hammer(t, ts.URL, stop)

	prog := rvasm.MustAssemble(smappic.ResetPC, quickstartProgram)
	host := p.Host()
	host.LoadProgram(0, prog)
	p.Start()
	p.Run()
	srv.Flush()
	close(stop)
	ts.CloseClientConnections()
	join()

	if got, want := host.Console(0), "10! = 3628800\n"; got != want {
		t.Fatalf("console = %q, want %q", got, want)
	}
	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quickstart_metrics.json", m)
}

// TestGoldenNUMA48WithServer re-runs the numa48 golden — the flagship
// 4-node kernel workload — observed: ObservePrototype's barrier hook
// publishes from inside the kernel's own Join, throughout the run.
func TestGoldenNUMA48WithServer(t *testing.T) {
	cfg := smappic.DefaultConfig(4, 1, 12)
	cfg.Core = core.CoreNone
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := obs.New()
	srv.MinPublishInterval = 0
	srv.ObservePrototype(p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stop := make(chan struct{})
	join := hammer(t, ts.URL, stop)

	k := kernel.New(p, kernel.DefaultConfig())
	ip := workload.DefaultISParams(24)
	ip.Keys = 1 << 13
	r := workload.RunIS(k, ip)
	srv.Flush()
	close(stop)
	ts.CloseClientConnections()
	join()

	if !r.Sorted {
		t.Fatal("integer sort output not sorted")
	}
	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "numa48_metrics.json", m)
}
