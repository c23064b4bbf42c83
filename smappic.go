// Package smappic is a cycle-level simulation of SMAPPIC, the Scalable
// Multi-FPGA Architecture Prototype Platform in the Cloud (Chirkov &
// Wentzlaff, ASPLOS 2023), built entirely in Go.
//
// A prototype consists of one or more nodes — each a BYOC-style tiled
// manycore with private caches, a directory-coherent distributed LLC and a
// three-channel mesh NoC — packed onto modeled AWS F1 FPGAs and stitched
// into a single shared-memory system by the inter-node bridge, which
// encapsulates NoC traffic in AXI4 writes tunneled over the PCIe fabric.
//
// Quick start:
//
//	cfg := smappic.DefaultConfig(4, 1, 12) // AxBxC: 4 FPGAs, 1 node each, 12 tiles
//	proto, err := smappic.Build(cfg)
//	...
//	host := proto.Host()
//	host.LoadProgram(0, rvasm.MustAssemble(smappic.ResetPC, source))
//	proto.Start()
//	proto.Run()
//	fmt.Print(host.Console(0))
//
// For large execution-driven studies, boot the mini-kernel instead of the
// RISC-V cores (Config.Core = CoreNone) and run workloads as threads; see
// package smappic/internal/kernel and the examples directory.
package smappic

import (
	"smappic/internal/cache"
	"smappic/internal/core"
	"smappic/internal/fault"
	"smappic/internal/kernel"
	"smappic/internal/sim"
)

// Re-exported platform types. The implementation lives in internal
// packages; these aliases are the supported public surface.
type (
	// Config describes a prototype in the paper's AxBxC notation.
	Config = core.Config
	// Prototype is a built SMAPPIC system.
	Prototype = core.Prototype
	// Node is one chip/die of the target system.
	Node = core.Node
	// Tile is one tile: private caches, LLC slice, optional core/accel.
	Tile = core.Tile
	// Host is the F1 host-side tooling (program loading, consoles).
	Host = core.Host
	// Port is the execution-driven memory interface of one tile.
	Port = core.Port
	// Device is a memory-mapped peripheral of a node's device window.
	Device = core.Device
	// GID addresses a tile globally (node, tile).
	GID = cache.GID
	// CoreType selects a tile's compute unit.
	CoreType = core.CoreType
	// Kernel is the mini operating system for execution-driven studies.
	Kernel = kernel.Kernel
	// KernelConfig selects NUMA and scheduling policies.
	KernelConfig = kernel.Config
	// Thread is a mini-kernel software thread.
	Thread = kernel.Thread
	// Ctx is the API surface threads use (loads, stores, compute).
	Ctx = kernel.Ctx
	// Time is simulation time in prototype clock cycles.
	Time = sim.Time
	// FaultPlan is a parsed set of fault-injection rules (Config.Faults).
	FaultPlan = fault.Plan
)

// Core type choices.
const (
	CoreAriane = core.CoreAriane
	CoreNone   = core.CoreNone
)

// ClockMHz is the prototype clock (paper Table 2).
const ClockMHz = core.ClockMHz

// Address-map landmarks.
const (
	// ResetPC is where cores begin fetching.
	ResetPC = core.ResetPC
	// DRAMBase is the start of node 0's memory region.
	DRAMBase = core.DRAMBase
	// DevBase is the start of uncacheable device space.
	DevBase = core.DevBase
)

// Build constructs a prototype from a configuration (the FPGA image
// generation step).
func Build(cfg Config) (*Prototype, error) { return core.Build(cfg) }

// DefaultConfig returns the paper's Table 2 system for an AxBxC shape.
func DefaultConfig(fpgas, nodesPerFPGA, tilesPerNode int) Config {
	return core.DefaultConfig(fpgas, nodesPerFPGA, tilesPerNode)
}

// ParseShape parses "AxBxC" notation (e.g. "4x1x12").
func ParseShape(s string) (fpgas, nodes, tiles int, err error) {
	return core.ParseShape(s)
}

// ParseFaults parses a fault-injection spec ("pcie.*.drop:p=0.01,seed=7;...")
// into a plan for Config.Faults. An empty spec returns a nil plan (injection
// disabled); see the fault package for the full grammar.
func ParseFaults(spec string, defaultSeed uint64) (*FaultPlan, error) {
	return fault.Parse(spec, defaultSeed)
}

// BootKernel starts the mini operating system on a prototype built with
// CoreNone tiles.
func BootKernel(p *Prototype, cfg KernelConfig) *Kernel { return kernel.New(p, cfg) }

// DefaultKernelConfig returns NUMA-aware kernel defaults.
func DefaultKernelConfig() KernelConfig { return kernel.DefaultConfig() }
