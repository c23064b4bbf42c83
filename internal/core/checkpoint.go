// Checkpoint/restore assembly for the platform. A snapshot (package ckpt) is
// a full state capture, taken at a quiescent safepoint (the whole group
// drained) — the campaign layer arranges those at workload barrier cuts. A
// capture is laid out by node and reads the same under every sharding. See
// DESIGN.md "Snapshot format".
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"smappic/internal/ckpt"
)

// canonicalString renders every parameter that shapes the simulated event
// stream, in a fixed order. Struct fields print with %+v, whose layout is
// fixed by the type definitions; the fault plan uses its canonical form so
// differently-written but equal specs fingerprint identically.
func (c Config) canonicalString() string {
	return fmt.Sprintf("shape=%s;core=%s;cache=%+v;unified=%t;gih=%t;bridge=%+v;seed=%d;faults=%s",
		c.Shape(), c.Core, c.Cache, c.UnifiedMemory, c.GlobalInterleaveHoming,
		c.Bridge, c.Seed, c.Faults.String())
}

// ConfigHash fingerprints the configuration for snapshot/restore matching.
// Parallel and ShardGranularity are deliberately excluded: every sharding of
// one configuration is byte-identical, so a snapshot belongs to all of them.
func (c Config) ConfigHash() string {
	sum := sha256.Sum256([]byte(c.canonicalString()))
	return hex.EncodeToString(sum[:])
}

// CaptureState assembles the full quiescent-state section: backing memory,
// every node's devices, caches and statistics registry, the PCIe fabric and
// fault-injector progress. The whole group must be drained — no event queued
// on any engine, no envelope parked in any outbox — and each subsystem
// additionally checks its own quiescence invariants and errors instead of
// capturing a torn state. Nothing captured depends on the sharding.
func (p *Prototype) CaptureState() (*ckpt.State, error) {
	if p.Group.Pending() {
		return nil, fmt.Errorf("core: events still pending; state capture requires a drained group")
	}
	st := &ckpt.State{Mem: p.Backing.CaptureState()}
	for _, n := range p.Nodes {
		ns := ckpt.NodeState{
			Node:  n.ID,
			DRAM:  n.DRAM.CaptureState(),
			NoC:   n.Mesh.CaptureState(),
			Stats: p.nodeStats[n.ID].CaptureState(),
		}
		mc, err := n.MemCtl.CaptureState()
		if err != nil {
			return nil, err
		}
		ns.MemCtl = mc
		br, err := n.Bridge.CaptureState()
		if err != nil {
			return nil, err
		}
		ns.Bridge = br
		for _, t := range n.Tiles {
			ts := ckpt.TileState{Tile: t.ID.Tile}
			if err := t.Priv.CaptureState(&ts); err != nil {
				return nil, err
			}
			if err := t.LLC.CaptureState(&ts); err != nil {
				return nil, err
			}
			ns.Tiles = append(ns.Tiles, ts)
		}
		st.Nodes = append(st.Nodes, ns)
	}
	st.PCIe = p.Fabric.CaptureState()
	st.Fault = p.Injector.CaptureState()
	return st, nil
}

// ApplyState overlays a captured state section, every section of it, onto a
// freshly built prototype of any sharding. The bool is ignored: it was the
// warm-start fork's "skip the bridge and fault sections", and stays in the
// signature only because the benchmark harness (benchmark/probes.go) calls
// ApplyState(state, false).
func (p *Prototype) ApplyState(st *ckpt.State, _ bool) error {
	if err := p.Backing.RestoreState(st.Mem); err != nil {
		return err
	}
	if len(st.Nodes) != len(p.Nodes) {
		return &ckpt.MismatchError{Field: "node count",
			Got: fmt.Sprint(len(st.Nodes)), Want: fmt.Sprint(len(p.Nodes))}
	}
	for i, ns := range st.Nodes {
		n := p.Nodes[i]
		if ns.Node != n.ID {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("node section %d labeled node%d", i, ns.Node)}
		}
		n.DRAM.RestoreState(ns.DRAM)
		n.MemCtl.RestoreState(ns.MemCtl)
		if err := p.nodeStats[n.ID].RestoreState(ns.Stats); err != nil {
			return err
		}
		if err := n.Mesh.RestoreState(ns.NoC); err != nil {
			return err
		}
		if err := n.Bridge.RestoreState(ns.Bridge); err != nil {
			return err
		}
		if len(ns.Tiles) != len(n.Tiles) {
			return &ckpt.MismatchError{Field: "tile count",
				Got: fmt.Sprint(len(ns.Tiles)), Want: fmt.Sprint(len(n.Tiles))}
		}
		for j, ts := range ns.Tiles {
			t := n.Tiles[j]
			if err := t.Priv.RestoreState(&ts); err != nil {
				return err
			}
			if err := t.LLC.RestoreState(&ts); err != nil {
				return err
			}
		}
	}
	if err := p.Fabric.RestoreState(st.PCIe); err != nil {
		return err
	}
	return p.Injector.RestoreState(st.Fault)
}
