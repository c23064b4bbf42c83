package obs

import (
	"smappic/internal/core"
	"smappic/internal/noc"
	"smappic/internal/sim"
)

// Snapshot is one consistent, immutable view of everything the dashboard
// shows. It is built only at quiescent simulation boundaries (sample ticks,
// window barriers, between events on the driving goroutine) and then
// published into the server's mailbox; HTTP handlers marshal it concurrently
// with the running simulation precisely because nothing in it aliases live
// simulator state.
type Snapshot struct {
	Seq    uint64 `json:"seq"`     // publish sequence number
	WallMs int64  `json:"wall_ms"` // wall-clock publish time (Unix ms; never enters sim results)

	// Meta and the sections below are present when a prototype is observed.
	Meta     *MetaView          `json:"meta,omitempty"`
	Stats    *sim.StatsSnapshot `json:"stats,omitempty"` // merged across shards
	Sync     *sim.GroupSync     `json:"sync,omitempty"`  // window synchronizer (one shard when serial)
	NoC      []MeshView         `json:"noc,omitempty"`
	Watchdog *WatchdogView      `json:"watchdog,omitempty"`
	Sampler  *SamplerView       `json:"sampler,omitempty"`

	// Campaign is present when a fleet campaign is observed.
	Campaign *CampaignView `json:"campaign,omitempty"`
}

// MetaView mirrors the run header of MetricsJSON.
type MetaView struct {
	Shape        string `json:"shape"`
	FPGAs        int    `json:"fpgas"`
	NodesPerFPGA int    `json:"nodes_per_fpga"`
	TilesPerNode int    `json:"tiles_per_node"`
	Cycles       uint64 `json:"cycles"`
	ClockMHz     int    `json:"clock_mhz"`
	Seed         uint64 `json:"seed"`
	Parallel     bool   `json:"parallel"`
	Halted       bool   `json:"halted"` // every started core has halted
}

// MeshView is one node's NoC traffic: cumulative per-link flit and busy
// totals for each of the three classes. Links are indexed tile*4+direction
// (N=0,E=1,S=2,W=3) with the chipset and bridge exit links at the tail —
// the dashboard reconstructs the mesh geometry from W and H.
type MeshView struct {
	Node    int              `json:"node"`
	Name    string           `json:"name"`
	W       int              `json:"w"`
	H       int              `json:"h"`
	Classes [][]noc.LinkStat `json:"classes"`
}

// WatchdogView reports the stall check every drain runs: Fired once the
// run drained wedged, with the prototype's StallDiagnosis.
type WatchdogView struct {
	Fired     bool   `json:"fired"`
	Diagnosis string `json:"diagnosis,omitempty"`
}

// SamplerView summarizes the interval sampler: its columns and the latest
// row (the full series stays in MetricsJSON; the SSE stream carries rows as
// they are taken).
type SamplerView struct {
	Every sim.Time       `json:"every"`
	Names []string       `json:"names"`
	Rows  int            `json:"rows"`
	Last  *sim.SampleRow `json:"last,omitempty"`
}

// CampaignView is the fleet job table, rebuilt from runner events.
type CampaignView struct {
	Total  int            `json:"total"`
	Counts map[string]int `json:"counts"` // jobs by current status
	Jobs   []JobView      `json:"jobs"`   // index-ordered; only jobs seen so far
}

// JobView is one campaign job's latest known state.
type JobView struct {
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Status string `json:"status"` // running | done | cached | failed | skipped
	Cycles uint64 `json:"cycles,omitempty"`
	Err    string `json:"err,omitempty"`
}

// buildPrototypeView fills the prototype-derived sections of a snapshot.
// It must run only while the simulation is quiescent: the caller is either
// a sampler tick or the coordinator at a window barrier (or host code
// before/after the run).
func buildPrototypeView(sn *Snapshot, p *core.Prototype) {
	cfg := p.Cfg
	sn.Meta = &MetaView{
		Shape:        cfg.Shape(),
		FPGAs:        cfg.FPGAs,
		NodesPerFPGA: cfg.NodesPerFPGA,
		TilesPerNode: cfg.TilesPerNode,
		Cycles:       uint64(p.Now()),
		ClockMHz:     cfg.ClockMHz,
		Seed:         cfg.Seed,
		Parallel:     p.Group.Shards() > 1,
		Halted:       p.AllHalted(),
	}

	// Merge the node registries into a scratch registry (CopyFrom only reads
	// its sources).
	regs := make([]*sim.Stats, len(p.Nodes))
	for i := range regs {
		regs[i] = p.StatsForNode(i)
	}
	var merged sim.Stats
	merged.CopyFrom(regs...)
	sn.Stats = merged.Snapshot()

	gs := p.Group.SyncSnapshot()
	sn.Sync = &gs

	sn.NoC = make([]MeshView, 0, len(p.Nodes))
	for _, n := range p.Nodes {
		w, h := n.Mesh.Dims()
		sn.NoC = append(sn.NoC, MeshView{
			Node:    n.ID,
			Name:    n.Name(),
			W:       w,
			H:       h,
			Classes: n.Mesh.LinkStatsSnapshot(),
		})
	}

	sn.Watchdog = &WatchdogView{
		Fired:     p.StallDiagnosis != "",
		Diagnosis: p.StallDiagnosis,
	}

	if p.Sampler != nil {
		rows := p.Sampler.Rows()
		sv := &SamplerView{
			Every: p.Sampler.Every(),
			Names: p.Sampler.Names(),
			Rows:  len(rows),
		}
		if len(rows) > 0 {
			last := rows[len(rows)-1]
			sv.Last = &last
		}
		sn.Sampler = sv
	}
}
