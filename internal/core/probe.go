package core

import (
	"fmt"
	"strings"

	"smappic/internal/cache"
	"smappic/internal/sim"
)

// probeLine picks a line homed at exactly (node, tile): it lives in the
// node's DRAM region (home node = region owner) and its line index is
// congruent to the tile (home slice = line interleave).
func (p *Prototype) probeLine(g cache.GID, seq int) uint64 {
	base := p.Map.NodeDRAMBase(g.Node) + 0x0100_0000 // probe scratch area
	c := uint64(p.Cfg.TilesPerNode)
	k := (uint64(g.Tile) + c - (base>>6)%c) % c
	return base + (k+uint64(seq)*c)*cache.LineBytes
}

// MeasureLatency returns the inter-core communication latency from sender i
// to receiver j, measured as the paper's Fig. 7 does: a cache line owned by
// core j (dirty in its private cache, homed on j's node) is loaded by core
// i. The load's round trip covers request to the home slice, downgrade
// probe to j, and the data grant back to i — crossing the inter-node
// interconnect twice when i and j sit on different nodes. Stats is left to
// the next run or report.
func (p *Prototype) MeasureLatency(i, j cache.GID, seq int) sim.Time {
	line := p.probeLine(j, seq)
	sender := p.PortAt(i)
	receiver := p.PortAt(j)

	// Two short processes, each on its own tile's engine, with a drain
	// after each: the same probe under every sharding.
	sim.Go(p.EngineForNode(j.Node), "probe-warm", func(proc *sim.Process) {
		// Warm: j takes the line in M.
		receiver.Store(proc, line, 8, 0xAB)
	})
	p.run(nil)
	var lat sim.Time
	sim.Go(p.EngineForNode(i.Node), "probe", func(proc *sim.Process) {
		start := proc.Now()
		sender.Load(proc, line, 8)
		lat = proc.Now() - start
	})
	p.run(nil)
	// The paper measures with a software ping-pong (flag polling loop on
	// both cores); its per-iteration instruction overhead adds a fixed
	// cost on top of the hardware transaction.
	return lat + pingPongSWOverhead
}

// pingPongSWOverhead is the software side of the paper's measurement loop.
const pingPongSWOverhead sim.Time = 55

// LatencyMatrix measures all hart pairs and returns the full heatmap of
// Fig. 7, in cycles. matrix[i][j] is the latency of core i reading a line
// owned by core j.
func (p *Prototype) LatencyMatrix() [][]sim.Time {
	n := p.Cfg.TotalTiles()
	out := make([][]sim.Time, n)
	seq := 0
	for i := 0; i < n; i++ {
		out[i] = make([]sim.Time, n)
		for j := 0; j < n; j++ {
			seq++
			out[i][j] = p.MeasureLatency(p.hartLoc(i), p.hartLoc(j), seq)
		}
	}
	return out
}

// LatencySummary aggregates a latency matrix into the intra-node and
// inter-node means the paper quotes (~100 vs ~250 cycles).
func (p *Prototype) LatencySummary(m [][]sim.Time) (intra, inter float64) {
	var intraSum, interSum, intraN, interN uint64
	c := p.Cfg.TilesPerNode
	for i := range m {
		for j := range m[i] {
			if i == j {
				continue
			}
			if i/c == j/c {
				intraSum += uint64(m[i][j])
				intraN++
			} else {
				interSum += uint64(m[i][j])
				interN++
			}
		}
	}
	if intraN > 0 {
		intra = float64(intraSum) / float64(intraN)
	}
	if interN > 0 {
		inter = float64(interSum) / float64(interN)
	}
	return intra, inter
}

// FormatHeatmap renders a latency matrix as aligned text (the repository's
// stand-in for the paper's color plot).
func FormatHeatmap(m [][]sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s", "")
	for j := range m {
		fmt.Fprintf(&b, "%5d", j)
	}
	b.WriteByte('\n')
	for i := range m {
		fmt.Fprintf(&b, "%4d", i)
		for j := range m[i] {
			fmt.Fprintf(&b, "%5d", m[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
