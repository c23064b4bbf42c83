package mem

import (
	"smappic/internal/axi"
	"smappic/internal/ckpt"
	"smappic/internal/fault"
	"smappic/internal/sim"
)

// DRAM models one F1 onboard DDR4 channel as an AXI4 target: fixed access
// latency plus bandwidth serialization. When a Backing is attached, reads
// and writes also move functional data (used by host DMA and the virtual SD
// card; the cache hierarchy moves its data through the backing store
// directly and uses DRAM only for timing).
type DRAM struct {
	eng     *sim.Engine
	name    string
	stats   *sim.Stats
	backing *Backing
	base    uint64 // global physical address of this channel's offset 0

	// Latency is the device access time in cycles. The paper's Table 2
	// lists 80 cycles end-to-end from the LLC; the controller path adds
	// the difference.
	Latency sim.Time
	// BytesPerCycle limits channel throughput.
	BytesPerCycle int

	busy sim.Time
	site *fault.Site // bit-flip fault site (the DRAM's own name)

	// Pre-resolved instruments (nil and free when telemetry is disabled).
	cReads      *sim.Counter
	cWrites     *sim.Counter
	cReadBytes  *sim.Counter
	cWriteBytes *sim.Counter
	cConflicts  *sim.Counter // accesses that found the channel busy
	cConfCycles *sim.Counter // cycles those accesses waited
	cEccFixed   *sim.Counter // single-bit errors SECDED corrected
	cEccFatal   *sim.Counter // double-bit errors SECDED detected (OK:false)
}

// NewDRAM creates a DRAM channel. backing may be nil for timing-only use.
func NewDRAM(eng *sim.Engine, name string, latency sim.Time, bytesPerCycle int, backing *Backing, base uint64, stats *sim.Stats) *DRAM {
	d := &DRAM{
		eng: eng, name: name, stats: stats,
		backing: backing, base: base,
		Latency: latency, BytesPerCycle: bytesPerCycle,
	}
	if stats != nil {
		d.cReads = stats.Counter(name + ".reads")
		d.cWrites = stats.Counter(name + ".writes")
		d.cReadBytes = stats.Counter(name + ".read_bytes")
		d.cWriteBytes = stats.Counter(name + ".write_bytes")
		d.cConflicts = stats.Counter(name + ".conflicts")
		d.cConfCycles = stats.Counter(name + ".conflict_cycles")
		d.cEccFixed = stats.Counter(name + ".ecc_corrected")
		d.cEccFatal = stats.Counter(name + ".ecc_uncorrectable")
	}
	return d
}

// SetInjector resolves this channel's bit-flip fault site (named after the
// channel, e.g. "node0.dram"). flip rules model single-bit upsets the SECDED
// code corrects; flip2 rules model double-bit upsets it can only detect,
// failing the read with OK:false. Must be called before traffic; nil-safe.
func (d *DRAM) SetInjector(inj *fault.Injector) { d.site = inj.Site(d.name, d.eng) }

// CaptureState records the channel's timing state (the bandwidth
// serialization clock; everything else is configuration or statistics).
func (d *DRAM) CaptureState() ckpt.DRAMState { return ckpt.DRAMState{Busy: uint64(d.busy)} }

// RestoreState applies a captured timing state.
func (d *DRAM) RestoreState(st ckpt.DRAMState) { d.busy = sim.Time(st.Busy) }

func (d *DRAM) delay(n int) sim.Time {
	beats := sim.Time(1)
	if d.BytesPerCycle > 0 {
		beats = sim.Time((n + d.BytesPerCycle - 1) / d.BytesPerCycle)
		if beats == 0 {
			beats = 1
		}
	}
	start := d.eng.Now()
	if d.busy > start {
		d.cConflicts.Inc()
		d.cConfCycles.Add(uint64(d.busy - start))
		start = d.busy
	}
	d.busy = start + beats
	return (start - d.eng.Now()) + beats + d.Latency
}

// Do serves a transfer after the access latency: a write applies its data, a
// read returns data. The SECDED model runs on the read path: a single-bit
// upset is corrected transparently (counted), a double-bit upset is detected
// but uncorrectable and fails the read.
func (d *DRAM) Do(t *axi.Txn, done func(axi.Resp)) {
	n := t.Size()
	count, bytes := d.cReads, d.cReadBytes
	if t.Write {
		count, bytes = d.cWrites, d.cWriteBytes
	}
	count.Inc()
	bytes.Add(uint64(n))
	d.eng.Schedule(d.delay(n), func() {
		resp := axi.Resp{ID: t.ID, OK: true}
		if t.Write {
			if d.backing != nil && n > 0 {
				d.backing.WriteBytes(d.base+t.Addr, t.Data)
			}
			done(resp)
			return
		}
		switch d.site.FlipBits() {
		case 1:
			d.cEccFixed.Inc()
		case 2:
			d.cEccFatal.Inc()
			resp.OK = false
		}
		if resp.OK && d.backing != nil && n > 0 {
			resp.Data = make([]byte, n)
			d.backing.ReadBytes(d.base+t.Addr, resp.Data)
		}
		done(resp)
	})
}

var _ axi.Target = (*DRAM)(nil)
