// Package core assembles the SMAPPIC platform: it instantiates BYOC-style
// nodes (tiles with private caches, LLC slices, mesh NoC), connects them
// with the inter-node bridge over an AXI crossbar (same FPGA) or the PCIe
// fabric (across FPGAs), attaches the NoC-AXI4 memory controllers, interrupt
// machinery and virtual devices, and exposes the measurement API the
// evaluation uses.
//
// Prototypes are described in the paper's AxBxC notation: A FPGAs, B nodes
// per FPGA, C tiles per node.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"smappic/internal/bridge"
	"smappic/internal/cache"
	"smappic/internal/fault"
	"smappic/internal/pcie"
)

// CoreType selects what occupies a tile's compute slot.
type CoreType string

const (
	// CoreAriane is the RV64 application core (functional + timing).
	CoreAriane CoreType = "ariane"
	// CorePicoRV32 is the small multi-cycle core BYOC also integrates:
	// same ISA-level behavior, ~4x the CPI.
	CorePicoRV32 CoreType = "picorv32"
	// CoreNone leaves the compute slot empty; the tile still has its
	// private cache and LLC slice and can host execution-driven workload
	// threads (the fast path for large studies).
	CoreNone CoreType = "none"
)

// ClockMHz is the prototype clock (paper Table 2), for converting cycles to
// seconds.
const ClockMHz = 100

// Config describes a prototype: its shape and the settings that experiments
// vary. Table 2's timing constants are not part of it; they live in the
// packages that model them (pcie, mem, bridge, cache).
type Config struct {
	FPGAs        int // A
	NodesPerFPGA int // B
	TilesPerNode int // C

	Core  CoreType
	Cache cache.Params

	// UnifiedMemory connects the nodes with the coherent inter-node
	// interconnect. When false, nodes are independent prototypes sharing
	// FPGAs (the cost-efficient 1x4x2-style configuration).
	UnifiedMemory bool

	// GlobalInterleaveHoming selects the alternative homing policy that
	// interleaves cache-line homes across every node in the system instead
	// of homing lines on the node that owns their DRAM region. It exists
	// for the ablation study: it destroys the locality that makes
	// first-touch NUMA allocation effective.
	GlobalInterleaveHoming bool

	Bridge bridge.Params

	Seed uint64

	// Faults, when non-nil, is a parsed fault-injection plan (see the fault
	// package's grammar). Build wires its sites into the PCIe fabric, the
	// bridges and the DRAM channels. Nil disables injection at zero cost.
	Faults *fault.Plan

	// Parallel > 1 shards the simulation: one engine per shard under the
	// bounded-lag synchronizer whose outer lookahead is the minimum PCIe
	// crossing, the engines of a window run by as many host workers as
	// GOMAXPROCS allows (see internal/sim/parallel.go).
	// ShardGranularity picks the shard size — one per FPGA (default) or one
	// per node, the latter nesting the co-located engines in an inner
	// window level at the intra-FPGA interconnect crossing — so the value
	// only selects the policy. 0 or 1 (the default) is the one-shard case of
	// the same synchronizer: one engine, windows run straight through.
	// Every sharding produces byte-identical MetricsJSON, event traces,
	// latency probes and state captures.
	Parallel int

	// ShardGranularity selects how finely a Parallel > 1 build shards:
	// "fpga" (or "", the default) runs one engine per FPGA; "node" runs one
	// engine per node, letting a 48-core numa48 shape occupy 48 host cores
	// under the hierarchical window synchronizer. Execution policy like
	// Parallel itself: results are byte-identical across granularities, so
	// the value is excluded from the configuration identity and from
	// snapshots. It changes nothing about how a one-shard build runs.
	ShardGranularity string
}

// DefaultConfig returns the paper's Table 2 system for the given shape.
func DefaultConfig(fpgas, nodesPerFPGA, tilesPerNode int) Config {
	return Config{
		FPGAs:         fpgas,
		NodesPerFPGA:  nodesPerFPGA,
		TilesPerNode:  tilesPerNode,
		Core:          CoreAriane,
		Cache:         cache.DefaultParams(),
		UnifiedMemory: true,
		Bridge:        bridge.DefaultParams(),
		Seed:          1,
	}
}

// ParseShape parses the paper's AxBxC notation ("4x1x12").
func ParseShape(s string) (fpgas, nodes, tiles int, err error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("core: shape %q is not AxBxC", s)
	}
	var v [3]int
	for i, p := range parts {
		v[i], err = strconv.Atoi(p)
		if err != nil || v[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("core: bad component %q in shape %q", p, s)
		}
	}
	return v[0], v[1], v[2], nil
}

// Shape renders the configuration in AxBxC notation.
func (c Config) Shape() string {
	return fmt.Sprintf("%dx%dx%d", c.FPGAs, c.NodesPerFPGA, c.TilesPerNode)
}

// TotalNodes returns A*B.
func (c Config) TotalNodes() int { return c.FPGAs * c.NodesPerFPGA }

// TotalTiles returns A*B*C.
func (c Config) TotalTiles() int { return c.TotalNodes() * c.TilesPerNode }

// MeshDims returns the node mesh shape for C tiles: the squarest W>=H
// factorization, matching OpenPiton's default floorplans (12 tiles -> 4x3).
func (c Config) MeshDims() (w, h int) {
	n := c.TilesPerNode
	h = 1
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			h = f
		}
	}
	return n / h, h
}

// Validate checks the configuration against the F1 physical constraints of
// paper §4.8 (gate count is checked separately by the fpga package).
func (c Config) Validate() error {
	if c.FPGAs <= 0 || c.NodesPerFPGA <= 0 || c.TilesPerNode <= 0 {
		return fmt.Errorf("core: all shape components must be positive (%s)", c.Shape())
	}
	if c.FPGAs > pcie.MaxFPGAs {
		return fmt.Errorf("core: %d FPGAs requested; only %d share low-latency PCIe links in an F1 instance", c.FPGAs, pcie.MaxFPGAs)
	}
	if c.NodesPerFPGA > 4 {
		return fmt.Errorf("core: %d nodes per FPGA; F1 has only 4 DRAM channels, one per node", c.NodesPerFPGA)
	}
	if c.TilesPerNode > 12 {
		return fmt.Errorf("core: %d tiles per node exceed the 12 that fit a VU9P", c.TilesPerNode)
	}
	if c.Core != CoreAriane && c.Core != CorePicoRV32 && c.Core != CoreNone {
		return fmt.Errorf("core: unknown core type %q", c.Core)
	}
	if g := c.ShardGranularity; g != "" && g != "fpga" && g != "node" {
		return fmt.Errorf("core: unknown shard granularity %q; want fpga or node", g)
	}
	return nil
}

// Granularity resolves the effective shard granularity ("fpga" or "node"),
// mapping the empty default to "fpga".
func (c Config) Granularity() string {
	if c.ShardGranularity == "" {
		return "fpga"
	}
	return c.ShardGranularity
}
