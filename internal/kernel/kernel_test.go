package kernel

import (
	"strings"
	"testing"

	"smappic/internal/core"
	"smappic/internal/sim"
)

func proto(t *testing.T, a, b, c int) *core.Prototype {
	t.Helper()
	cfg := core.DefaultConfig(a, b, c)
	cfg.Core = core.CoreNone
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFirstTouchAllocatesLocally(t *testing.T) {
	p := proto(t, 2, 1, 2)
	k := New(p, DefaultConfig())
	buf := k.Alloc(4 * PageBytes)

	// A thread pinned to node 1 touches all pages.
	k.Spawn("t", k.NodeHarts(1), func(c *Ctx) {
		for i := uint64(0); i < 4; i++ {
			c.Store(buf+i*PageBytes, 8, i)
		}
	})
	k.Join()
	for i := uint64(0); i < 4; i++ {
		if got := k.PageNode(buf + i*PageBytes); got != 1 {
			t.Errorf("page %d on node %d, want 1 (first touch)", i, got)
		}
	}
}

func TestBlindAllocationSpreads(t *testing.T) {
	p := proto(t, 4, 1, 2)
	cfg := DefaultConfig()
	cfg.NUMA = false
	k := New(p, cfg)
	buf := k.Alloc(64 * PageBytes)
	k.Spawn("t", []int{0}, func(c *Ctx) {
		for i := uint64(0); i < 64; i++ {
			c.Store(buf+i*PageBytes, 8, i)
		}
	})
	k.Join()
	per := k.PagesPerNode()
	nodesUsed := 0
	for _, n := range per {
		if n > 0 {
			nodesUsed++
		}
	}
	if nodesUsed < 3 {
		t.Fatalf("blind allocation used %d nodes (%v), want spread", nodesUsed, per)
	}
}

func TestDataFlowsThroughVirtualMemory(t *testing.T) {
	p := proto(t, 1, 1, 2)
	k := New(p, DefaultConfig())
	buf := k.Alloc(PageBytes)
	var got uint64
	k.Spawn("w", []int{0}, func(c *Ctx) {
		c.Store(buf+8, 8, 0xBEEF)
		got = c.Load(buf+8, 8)
	})
	k.Join()
	if got != 0xBEEF {
		t.Fatalf("readback = %#x", got)
	}
}

func TestNUMAModeNeverMigrates(t *testing.T) {
	p := proto(t, 2, 1, 2)
	k := New(p, DefaultConfig())
	buf := k.Alloc(PageBytes)
	th := k.Spawn("t", k.AllHarts(), func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Compute(10_000)
			c.Store(buf, 8, uint64(i))
		}
	})
	k.Join()
	if th.Migrations != 0 {
		t.Fatalf("NUMA-mode thread migrated %d times", th.Migrations)
	}
}

func TestNonNUMAModeMigrates(t *testing.T) {
	p := proto(t, 2, 1, 2)
	cfg := DefaultConfig()
	cfg.NUMA = false
	k := New(p, cfg)
	buf := k.Alloc(PageBytes)
	th := k.Spawn("t", k.AllHarts(), func(c *Ctx) {
		for i := 0; i < 10*int(quantum/1_000); i++ { // ten quanta
			c.Compute(1_000)
			c.Store(buf, 8, uint64(i))
		}
	})
	k.Join()
	if th.Migrations == 0 {
		t.Fatal("non-NUMA thread never migrated")
	}
}

func TestPinnedThreadStaysPut(t *testing.T) {
	p := proto(t, 2, 1, 2)
	cfg := DefaultConfig()
	cfg.NUMA = false
	k := New(p, cfg)
	th := k.Spawn("t", []int{3}, func(c *Ctx) {
		for i := 0; i < 3*int(quantum/2_000); i++ { // three quanta
			c.Compute(2_000)
		}
	})
	k.Join()
	if th.Migrations != 0 || th.hart != 3 {
		t.Fatalf("pinned thread moved: hart=%d migrations=%d", th.hart, th.Migrations)
	}
}

// TestMigrationsCrossShards: on sharded builds a non-NUMA thread's node
// changes are cross-shard hops, across FPGAs under the PCIe lookahead and
// between co-located nodes under the intra-FPGA one. migrateCost covers
// both (a compile-time assertion beside its declaration), so every hop is
// schedulable and the thread visits both nodes.
func TestMigrationsCrossShards(t *testing.T) {
	for _, tc := range []struct {
		name         string
		fpgas, nodes int
		granularity  string
	}{
		{"cross-fpga", 2, 1, "fpga"},
		{"cross-node", 1, 2, "node"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig(tc.fpgas, tc.nodes, 2)
			cfg.Core = core.CoreNone
			cfg.Parallel, cfg.ShardGranularity = 2, tc.granularity
			p, err := core.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			k := New(p, Config{Seed: 42})
			visited := map[int]bool{}
			th := k.Spawn("t", k.AllHarts(), func(c *Ctx) {
				for i := 0; i < 10*int(quantum/1_000); i++ { // ten quanta
					c.Compute(1_000)
					visited[c.T.Node()] = true
				}
			})
			k.Join()
			if th.Migrations == 0 || len(visited) != 2 {
				t.Fatalf("%d migrations visited nodes %v, want both", th.Migrations, visited)
			}
		})
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	p := proto(t, 1, 1, 4)
	k := New(p, DefaultConfig())
	bar := k.NewBarrier(4)
	var after []sim.Time
	var slowest sim.Time
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("t", []int{i}, func(c *Ctx) {
			work := sim.Time(1000 * (i + 1))
			c.Compute(work)
			if c.P.Now() > slowest {
				slowest = c.P.Now()
			}
			bar.Wait(c)
			after = append(after, c.P.Now())
		})
	}
	k.Join()
	if len(after) != 4 {
		t.Fatalf("%d threads passed the barrier", len(after))
	}
	for _, ts := range after {
		if ts < slowest {
			t.Fatalf("a thread passed the barrier at %d before the slowest arrival %d", ts, slowest)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	p := proto(t, 1, 1, 2)
	k := New(p, DefaultConfig())
	bar := k.NewBarrier(2)
	counts := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("t", []int{i}, func(c *Ctx) {
			for round := 0; round < 3; round++ {
				c.Compute(sim.Time(100 * (i + 1)))
				bar.Wait(c)
				counts[i]++
			}
		})
	}
	k.Join()
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("rounds = %v, want [3 3]", counts)
	}
}

func TestSpawnSpreadsOverAffinity(t *testing.T) {
	p := proto(t, 1, 1, 4)
	k := New(p, DefaultConfig())
	harts := map[int]bool{}
	for i := 0; i < 4; i++ {
		th := k.Spawn("t", k.AllHarts(), func(c *Ctx) {})
		harts[th.hart] = true
	}
	if len(harts) != 4 {
		t.Fatalf("threads started on %d distinct harts, want 4", len(harts))
	}
	k.Join()
}

func TestNUMAPlacementAffectsLatency(t *testing.T) {
	// The core experiment mechanism of Figs. 8-9: local-first-touch pages
	// are faster to access than blind-spread pages.
	run := func(numa bool) sim.Time {
		p := proto(t, 2, 1, 2)
		cfg := DefaultConfig()
		cfg.NUMA = numa
		cfg.Seed = 7
		k := New(p, cfg)
		buf := k.Alloc(256 * PageBytes)
		var took sim.Time
		k.Spawn("t", []int{0}, func(c *Ctx) {
			start := c.P.Now()
			// Touch then re-walk: misses go to wherever pages landed.
			for rep := 0; rep < 2; rep++ {
				for i := uint64(0); i < 256; i++ {
					for off := uint64(0); off < PageBytes; off += 512 {
						c.Load(buf+i*PageBytes+off, 8)
					}
				}
			}
			took = c.P.Now() - start
		})
		k.Join()
		return took
	}
	local, spread := run(true), run(false)
	if float64(spread) < float64(local)*1.15 {
		t.Fatalf("NUMA placement effect missing: local=%d spread=%d", local, spread)
	}
}

func TestDeviceTreeDescribesNUMATopology(t *testing.T) {
	p := proto(t, 4, 1, 12)
	k := New(p, DefaultConfig())
	dts := k.DeviceTree()
	if !strings.Contains(dts, "numa-node-id = <3>") {
		t.Error("device tree missing node 3")
	}
	if strings.Count(dts, "device_type = \"cpu\"") != 48 {
		t.Errorf("device tree lists %d cpus, want 48", strings.Count(dts, "device_type = \"cpu\""))
	}
	if strings.Count(dts, "device_type = \"memory\"") != 4 {
		t.Error("device tree should list 4 memory regions")
	}
	if !strings.Contains(dts, "distance-matrix") {
		t.Error("device tree missing NUMA distance map")
	}
	if !strings.Contains(dts, "ns16550a") || !strings.Contains(dts, "riscv,clint0") {
		t.Error("device tree missing chipset devices")
	}
}

func TestDeviceTreeSingleNodeHasNoDistanceMap(t *testing.T) {
	p := proto(t, 1, 1, 2)
	k := New(p, DefaultConfig())
	if strings.Contains(k.DeviceTree(), "distance-matrix") {
		t.Error("single-node system should not emit a distance map")
	}
}
