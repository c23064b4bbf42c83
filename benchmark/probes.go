package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smappic/internal/cache"
	"smappic/internal/campaign"
	"smappic/internal/ckpt"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/noc"
	"smappic/internal/sim"
	"smappic/internal/workload"
)

// The layer probes: each times a fixed number of calls into one layer's
// public API, sizes.probeBatches times, and reports the median batch. They
// run in every traced run, after the timed part, and do not depend on the
// workload; what each should move, and on which workload, is tabulated in
// README.md.

// prober collects probe results; the first error stops the rest.
type prober struct {
	b    *bench
	vals map[string]float64
	err  error
}

// n scales a call count down for the smoke test.
func (p *prober) n(full int) int {
	if n := full / p.b.sz.probeDiv; n > 1 {
		return n
	}
	return 2
}

// time runs batch once per probe batch and returns the median seconds.
func (p *prober) time(batch func() error) float64 {
	var secs []float64
	for i := 0; i < p.b.sz.probeBatches && p.err == nil; i++ {
		start := time.Now()
		p.err = batch()
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs)
}

func runProbes(b *bench) map[string]float64 {
	p := &prober{b: b, vals: map[string]float64{}}
	for _, probe := range []func(){p.sim, p.windows, p.noc, p.memory, p.riscv, p.kernel, p.core, p.ckpt, p.campaign} {
		if p.err == nil {
			probe()
		}
	}
	if p.err != nil {
		b.check(false, "layer probes: %v", p.err)
	}
	return p.vals
}

func nop() {}

// sim: the event heap, the process hand-off and the two cross-shard nets.
func (p *prober) sim() {
	n := p.n(400_000)
	e := sim.NewEngine()
	p.vals["sim.event_ns"] = p.time(func() error {
		for i := 0; i < n; i++ {
			e.Schedule(sim.Time(i%16), nop)
			if i%1024 == 0 {
				e.Run()
			}
		}
		e.Run()
		return nil
	}) * 1e9 / float64(n)

	n = p.n(100_000)
	p.vals["sim.process_switch_ns"] = p.time(func() error {
		e := sim.NewEngine()
		sim.Go(e, "probe", func(proc *sim.Process) {
			for i := 0; i < n; i++ {
				proc.Wait(1)
			}
		})
		e.Run()
		return nil
	}) * 1e9 / float64(n)

	n = p.n(200_000)
	se := sim.NewEngine()
	serial := sim.NewSerialNet(se)
	p.vals["sim.serialnet_send_ns"] = p.time(func() error {
		for i := 0; i < n; i++ {
			serial.Send(0, 1, se.Now()+sim.Time(16+i%16), nop)
			if i%1024 == 0 {
				se.Run()
			}
		}
		se.Run()
		return nil
	}) * 1e9 / float64(n)

	// Two shards: envelopes park in the outbox and are merged in canonical
	// order at the window barrier, then delivered.
	const lookahead = 16
	g := sim.NewGroup(lookahead, sim.NewEngine(), sim.NewEngine())
	p.vals["sim.group_send_ns"] = p.time(func() error {
		for i := 0; i < n; i++ {
			g.Send(i%2, 1-i%2, g.Now()+sim.Time(lookahead+i%16), nop)
			if i%1024 == 0 {
				g.Run()
			}
		}
		g.Run()
		return nil
	}) * 1e9 / float64(n)
}

// windows: the cost of one synchronisation window over k engines that have
// next to nothing to do (one event each per window), fixed-width windows.
func (p *prober) windows() {
	const lookahead = 16
	for _, k := range []int{2, 4, 8} {
		ticks := p.n(4_000)
		var windows uint64
		secs := p.time(func() error {
			engines := make([]*sim.Engine, k)
			for i := range engines {
				e, left := sim.NewEngine(), ticks
				var tick func()
				tick = func() {
					if left--; left > 0 {
						e.Schedule(lookahead, tick)
					}
				}
				e.Schedule(0, tick)
				engines[i] = e
			}
			g := sim.NewGroup(lookahead, engines...)
			g.SetAdaptive(1)
			for g.StepWindow() {
			}
			windows = g.Windows()
			return nil
		})
		p.vals[fmt.Sprintf("sim.window_ns.k%d", k)] = secs * 1e9 / float64(windows)
	}
}

// noc: one packet corner to corner of a 12-tile mesh, per hop.
func (p *prober) noc() {
	n := p.n(200_000)
	e := sim.NewEngine()
	m := noc.New(e, "probe.mesh", noc.DefaultParams(4, 3), &sim.Stats{})
	for t := 0; t < m.Tiles(); t++ {
		m.AttachTile(t, func(*noc.Packet) {})
	}
	src, dst := noc.Dest{Port: noc.PortTile, Tile: 0}, noc.Dest{Port: noc.PortTile, Tile: m.Tiles() - 1}
	pkt := &noc.Packet{Class: noc.NoC1, Src: src, Dst: dst, Flits: 3}
	hops := m.HopCount(src, dst)
	p.vals["noc.hop_ns"] = p.time(func() error {
		for i := 0; i < n; i++ {
			m.Send(pkt)
			if i%256 == 0 {
				e.Run()
			}
		}
		e.Run()
		return nil
	}) * 1e9 / float64(n*hops)
}

// loads times n Port.Load calls from tile 0 of node 0; addr picks each
// call's address.
func (p *prober) loads(pr *core.Prototype, n int, addr func(i int) uint64) float64 {
	port := pr.PortAt(cache.GID{Node: 0, Tile: 0})
	return p.time(func() error {
		sim.Go(pr.Eng, "probe", func(proc *sim.Process) {
			for i := 0; i < n; i++ {
				port.Load(proc, addr(i), 8)
			}
		})
		pr.Run()
		return nil
	}) * 1e9 / float64(n)
}

func (p *prober) build(fpgas, nodes, tiles int, coreType core.CoreType) *core.Prototype {
	cfg := core.DefaultConfig(fpgas, nodes, tiles)
	cfg.Core = coreType
	pr, err := core.Build(cfg)
	if err != nil && p.err == nil {
		p.err = err
	}
	return pr
}

// memory: the cache hierarchy, the DRAM path and the inter-node path.
func (p *prober) memory() {
	pr := p.build(1, 1, 2, core.CoreNone)
	if p.err != nil {
		return
	}
	base := pr.Map.NodeDRAMBase(0) + 0x100000
	p.vals["cache.l1_hit_ns"] = p.loads(pr, p.n(100_000), func(int) uint64 { return base })
	// 512 lines: more than the private cache holds, resident in the LLC
	// after the first batch's first pass.
	p.vals["cache.llc_hit_ns"] = p.loads(pr, p.n(40_000), func(i int) uint64 { return base + uint64(i%512)*64 })
	// Every call a line nothing has touched: misses all the way to DRAM.
	fresh := base + 1<<24
	p.vals["mem.dram_miss_ns"] = p.loads(pr, p.n(20_000), func(int) uint64 { fresh += 64; return fresh })

	// Node-1 DRAM from node 0 on 2x1x2: bridge, AXI, shell and PCIe.
	two := p.build(2, 1, 2, core.CoreNone)
	if p.err != nil {
		return
	}
	remote := two.Map.NodeDRAMBase(1) + 0x100000
	p.vals["bridge.remote_load_ns"] = p.loads(two, p.n(4_000), func(i int) uint64 { return remote + uint64(i%512)*64 })
}

// riscv: the interpreter on a two-instruction register loop.
func (p *prober) riscv() {
	n := p.n(100_000)
	secs := p.time(func() error {
		pr := p.build(1, 1, 1, core.CoreAriane)
		if p.err != nil {
			return p.err
		}
		pr.Backing.WriteU32(core.ResetPC, 0x00128293)   // addi t0, t0, 1
		pr.Backing.WriteU32(core.ResetPC+4, 0xFFDFF06F) // j -4
		hart := pr.Nodes[0].Tiles[0].Core
		sim.Go(pr.Eng, "hart", func(proc *sim.Process) { hart.Run(proc, uint64(n)) })
		pr.Run()
		return nil
	})
	p.vals["riscv.mips"] = float64(n) / secs / 1e6
}

// kernel: a thread's L1-resident load, and a barrier round over 8 threads
// on 2 nodes.
func (p *prober) kernel() {
	boot := func() *kernel.Kernel {
		pr := p.build(2, 1, 4, core.CoreNone)
		if p.err != nil {
			return nil
		}
		return kernel.New(pr, kernel.DefaultConfig())
	}
	n := p.n(50_000)
	p.vals["kernel.ctx_load_ns"] = p.time(func() error {
		k := boot()
		if k == nil {
			return p.err
		}
		va := k.Alloc(kernel.PageBytes)
		k.Spawn("probe", k.AllHarts()[:1], func(c *kernel.Ctx) {
			for i := 0; i < n; i++ {
				c.Load(va, 8)
			}
		})
		k.Join()
		return nil
	}) * 1e9 / float64(n)

	rounds := p.n(500)
	p.vals["kernel.barrier_ns"] = p.time(func() error {
		k := boot()
		if k == nil {
			return p.err
		}
		harts := k.AllHarts()
		bar := k.NewBarrier(len(harts))
		for i := range harts {
			k.Spawn(fmt.Sprintf("probe%d", i), harts, func(c *kernel.Ctx) {
				for r := 0; r < rounds; r++ {
					bar.Wait(c)
				}
			})
		}
		k.Join()
		return nil
	}) * 1e9 / float64(rounds)
}

// buildNUMA builds the 48-core 4x1x12 prototype (a small one in smoke runs).
func (p *prober) buildNUMA() *core.Prototype {
	return p.build(p.b.sz.numa[0], p.b.sz.numa[1], p.b.sz.numa[2], core.CoreNone)
}

// numa48 runs the 4x1x12 IS fixture up to its first phase barrier (cut
// set) or to completion, and returns the quiescent machine.
func (p *prober) numa48(keys int, cut *workload.CutPlan) (*core.Prototype, *workload.ISCut) {
	pr := p.buildNUMA()
	if p.err != nil {
		return nil, nil
	}
	k := kernel.New(pr, kernel.DefaultConfig())
	ip := workload.DefaultISParams(pr.Cfg.TotalTiles())
	ip.Keys, ip.Seed = keys, p.b.opt.seed
	_, ic := workload.RunISCut(k, ip, cut)
	return pr, ic
}

// core: building the 48-core prototype, and rendering its metrics document.
func (p *prober) core() {
	const builds = 3
	p.vals["core.build_ms"] = p.time(func() error {
		for i := 0; i < builds && p.err == nil; i++ {
			p.buildNUMA()
		}
		return p.err
	}) * 1e3 / builds

	pr, _ := p.numa48(p.b.sz.isKeys/8, nil)
	if p.err != nil {
		return
	}
	p.vals["core.metrics_json_ms"] = p.time(func() error {
		_, err := pr.MetricsJSON()
		return err
	}) * 1e3
}

// ckpt: one state snapshot of the 48-core IS run at its first phase
// barrier — capture, write, read back, apply to a fresh build.
func (p *prober) ckpt() {
	pr, ic := p.numa48(p.b.sz.isKeys, &workload.CutPlan{After: 1})
	if p.err != nil {
		return
	}
	if ic == nil {
		p.err = fmt.Errorf("the IS run finished before its first barrier cut")
		return
	}
	var snap *ckpt.Snapshot
	p.vals["ckpt.capture_ms"] = p.time(func() error {
		st, err := pr.CaptureState()
		if err != nil {
			return err
		}
		st.Kernel, st.Workload = ic.KernelState(), ic.WorkloadState()
		snap = &ckpt.Snapshot{Kind: ckpt.KindState, ConfigHash: pr.Cfg.ConfigHash(),
			Workload: pr.WorkloadTag, Now: uint64(pr.Now()), State: st}
		return nil
	}) * 1e3
	if p.err != nil {
		return
	}
	path := filepath.Join(p.b.dir, "probe.ckpt")
	p.vals["ckpt.write_ms"] = p.time(func() error { return snap.WriteFile(path) }) * 1e3
	var back *ckpt.Snapshot
	p.vals["ckpt.read_ms"] = p.time(func() (err error) {
		back, err = ckpt.ReadFile(path)
		return err
	}) * 1e3
	if p.err != nil {
		return
	}
	if info, err := os.Stat(path); err == nil {
		p.vals["ckpt.snapshot_bytes"] = float64(info.Size())
	}
	// Apply needs a fresh prototype each time; only the apply is timed.
	var applies []float64
	for i := 0; i < p.b.sz.probeBatches && p.err == nil; i++ {
		fresh := p.buildNUMA()
		if p.err != nil {
			return
		}
		start := time.Now()
		p.err = fresh.ApplyState(back.State, false)
		applies = append(applies, time.Since(start).Seconds())
	}
	p.vals["ckpt.apply_ms"] = median(applies) * 1e3
}

// campaign: the control-plane pieces a fleet submit and a result touch.
func (p *prober) campaign() {
	spec := campaign.Spec{Name: "probe", Shapes: []string{"2x1x2", "2x2x2"}, Workloads: []string{campaign.WorkloadIS},
		NUMA: []bool{true, false}, Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8}, Keys: p.b.sz.fleetKeys}
	jobs, err := spec.Jobs()
	if err != nil {
		p.err = err
		return
	}
	n := p.n(2_000)
	p.vals["campaign.key_us"] = p.time(func() error {
		for i := 0; i < n; i++ {
			jobs[i%len(jobs)].Params.Key()
		}
		return nil
	}) * 1e6 / float64(n)

	n = p.n(200)
	p.vals["campaign.expand_ns_per_point"] = p.time(func() error {
		for i := 0; i < n; i++ {
			if _, err := spec.Jobs(); err != nil {
				return err
			}
		}
		return nil
	}) * 1e9 / float64(n*len(jobs))

	// 4 tenants x 256 jobs through the deficit-round-robin queue.
	tenants := []string{"a", "b", "c", "d"}
	const perTenant = 256
	p.vals["campaign.queue_op_ns"] = p.time(func() error {
		q := campaign.NewQueue(0)
		for i := 0; i < perTenant*len(tenants); i++ {
			q.Push(&campaign.TenantJob{Tenant: tenants[i%len(tenants)], CampaignID: "c", Seq: uint64(i), Job: jobs[i%len(jobs)]})
		}
		for tj := q.Next(); tj != nil; tj = q.Next() {
			q.Release(tj.Tenant)
		}
		return nil
	}) * 1e9 / float64(perTenant*len(tenants))

	// One real result, as a worker would deliver it.
	res, err := campaign.Execute(context.Background(), jobs[0].Params)
	if err != nil {
		p.err = err
		return
	}
	store, err := campaign.OpenCache(filepath.Join(p.b.dir, "probe-cache"))
	if err != nil {
		p.err = err
		return
	}
	n = p.n(20)
	p.vals["campaign.cache_put_us"] = p.time(func() error {
		for i := 0; i < n; i++ {
			if err := store.Put(res); err != nil {
				return err
			}
		}
		return nil
	}) * 1e6 / float64(n)
	n = p.n(200)
	p.vals["campaign.cache_get_us"] = p.time(func() error {
		for i := 0; i < n; i++ {
			if _, ok := store.Get(res.Key); !ok {
				return fmt.Errorf("cache lost key %s", res.Key)
			}
		}
		return nil
	}) * 1e6 / float64(n)

	cr := &campaign.CampaignResult{Spec: spec}
	for _, job := range jobs {
		cr.Jobs = append(cr.Jobs, campaign.JobOutcome{Job: job, Status: campaign.StatusRun, Result: res})
	}
	n = p.n(10)
	p.vals["campaign.aggregate_ms"] = p.time(func() error {
		for i := 0; i < n; i++ {
			agg := cr.Aggregate()
			if _, err := agg.JSON(); err != nil {
				return err
			}
			agg.CSV()
		}
		return nil
	}) * 1e3 / float64(n)
}
