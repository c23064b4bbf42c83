// Checkpoint/restore assembly for the platform. Two snapshot kinds exist
// (package ckpt): replay cursors, which any prototype can take at any window
// barrier and which restore by deterministic re-execution under any
// sharding; and full state captures, which must be taken at a quiescent
// safepoint (the whole group drained) — the campaign layer arranges those at
// workload barrier cuts. The hardware half of a capture is laid out by node
// and reads the same under every sharding; the kernel's half needs one
// shard. See DESIGN.md "Snapshot format".
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"smappic/internal/ckpt"
	"smappic/internal/sim"
)

// canonicalString renders every parameter that shapes the simulated event
// stream, in a fixed order. Struct fields print with %+v, whose layout is
// fixed by the type definitions; the fault plan uses its canonical form so
// differently-written but equal specs fingerprint identically.
func (c Config) canonicalString() string {
	return fmt.Sprintf("shape=%s;core=%s;cache=%+v;unified=%t;gih=%t;dram=%d/%d;bridge=%+v;pcie=%+v;clock=%d;seed=%d;faults=%s;watchdog=%d",
		c.Shape(), c.Core, c.Cache, c.UnifiedMemory, c.GlobalInterleaveHoming,
		c.DRAMLatency, c.DRAMBytesPerCycle, c.Bridge, c.PCIe, c.ClockMHz,
		c.Seed, c.Faults.String(), c.WatchdogInterval)
}

// ConfigHash fingerprints the configuration for snapshot/restore matching.
// Parallel and ShardGranularity are deliberately excluded: every sharding of
// one configuration is byte-identical, so a snapshot belongs to all of them.
func (c Config) ConfigHash() string {
	sum := sha256.Sum256([]byte(c.canonicalString()))
	return hex.EncodeToString(sum[:])
}

// RunToCycle runs until a barrier falls exactly on cycle at — every event
// below at executed, none at or past it: the same simulated state whatever
// the shard count, granularity, widening cap or sampler — or until stop (nil:
// never) holds or the run drains, whichever comes first. It is how a replay
// cursor is both taken at a chosen cycle and restored to one.
func (p *Prototype) RunToCycle(at sim.Time, stop func() bool) sim.Time {
	if at > p.Group.Horizon() {
		p.Group.HoldCut(at)
		defer p.Group.HoldCut(sim.TimeMax)
	}
	return p.RunUntil(func() bool { return p.Group.Horizon() >= at || (stop != nil && stop()) })
}

// stateDigest fingerprints the simulated state at the current barrier: the
// metrics document (clock and merged registry) without the sampler's series,
// which is an observer's, not the model's.
func (p *Prototype) stateDigest() (string, error) {
	doc, err := p.metricsJSON(nil)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// Checkpoint writes a replay-cursor snapshot of the run so far: the horizon
// of the barrier the run rests on, the clock, and the digest of the simulated
// state there. It may be taken wherever the caller's run loop is between
// windows (RunUntil or RunToCycle has returned, at least one window in).
// WorkloadTag (set by the caller after loading software) guards restore
// against replaying a different program.
func (p *Prototype) Checkpoint(w io.Writer) error {
	if p.Group.Horizon() == 0 {
		return fmt.Errorf("core: no window has run; a replay cursor names a barrier")
	}
	digest, err := p.stateDigest()
	if err != nil {
		return err
	}
	snap := &ckpt.Snapshot{
		Kind:       ckpt.KindReplay,
		ConfigHash: p.Cfg.ConfigHash(),
		Workload:   p.WorkloadTag,
		Now:        uint64(p.Now()),
		Replay:     &ckpt.Replay{Horizon: uint64(p.Group.Horizon()), StateDigest: digest},
	}
	return snap.Write(w)
}

// RestorePrototype reads and verifies a snapshot, checks it belongs to cfg,
// and builds a fresh prototype for it. The caller then loads the same
// software, starts the prototype and — for replay snapshots — calls Replay
// to re-execute to the cursor, or — for state snapshots — applies the state
// sections. All failure modes return typed ckpt errors; nothing panics on a
// hostile snapshot.
func RestorePrototype(r io.Reader, cfg Config) (*Prototype, *ckpt.Snapshot, error) {
	snap, err := ckpt.Read(r)
	if err != nil {
		return nil, nil, err
	}
	if snap.ConfigHash != cfg.ConfigHash() {
		return nil, nil, &ckpt.MismatchError{Field: "configuration", Got: snap.ConfigHash, Want: cfg.ConfigHash()}
	}
	p, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	return p, snap, nil
}

// Replay re-executes a freshly built, started prototype to a replay
// snapshot's cursor. Determinism does the heavy lifting: running the same
// build to the same cycle reproduces the exact simulated state — under any
// sharding, since a barrier on a cycle means the same thing in all of them —
// and the recorded clock and state digest cross-check it. A mismatch means
// the software or configuration differs from the checkpointed run. A run that
// drains before the horizon is compared too: a cursor taken after the run
// drained names a horizon another sharding's last window may never reach,
// and the drained state is the same state.
func (p *Prototype) Replay(snap *ckpt.Snapshot) error {
	if snap.Kind != ckpt.KindReplay || snap.Replay == nil {
		return &ckpt.MismatchError{Field: "snapshot kind", Got: snap.Kind.String(), Want: ckpt.KindReplay.String()}
	}
	if snap.Workload != p.WorkloadTag {
		return &ckpt.MismatchError{Field: "workload", Got: snap.Workload, Want: p.WorkloadTag}
	}
	p.RunToCycle(sim.Time(snap.Replay.Horizon), nil)
	if uint64(p.Now()) != snap.Now {
		return &ckpt.MismatchError{Field: "replay clock",
			Got: fmt.Sprint(snap.Now), Want: fmt.Sprint(p.Now())}
	}
	digest, err := p.stateDigest()
	if err != nil {
		return err
	}
	if digest != snap.Replay.StateDigest {
		return &ckpt.MismatchError{Field: "state digest", Got: snap.Replay.StateDigest, Want: digest}
	}
	return nil
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

// ApplyState overlays a captured state section onto a freshly built
// prototype of any sharding. With warmFork set — warm-start forking, where
// the restoring configuration may differ in fork-time parameters — the
// bridge section (credits, link shaper) and fault section are skipped: a
// fresh bridge's full-credit quiescent state is consistent on both sides of
// every link, and the fork's own fault plan starts its streams from zero.
func (p *Prototype) ApplyState(st *ckpt.State, warmFork bool) error {
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
		if !warmFork {
			if err := n.Bridge.RestoreState(ns.Bridge); err != nil {
				return err
			}
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
	if !warmFork {
		if err := p.Injector.RestoreState(st.Fault); err != nil {
			return err
		}
	}
	return nil
}
