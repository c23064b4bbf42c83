package mem

import (
	"smappic/internal/axi"
	"smappic/internal/ckpt"
	"smappic/internal/fault"
	"smappic/internal/sim"
)

// DRAMLatency is the device access time in cycles. The paper's Table 2
// lists 80 cycles end-to-end from the LLC; the controller path adds the
// difference.
const DRAMLatency sim.Time = 76

// dramBytesPerCycle is one DDR4 channel's throughput.
const dramBytesPerCycle = 64

// DRAM models one F1 onboard DDR4 channel as an AXI4 target: fixed access
// latency plus bandwidth serialization. It is timing only: data lives in the
// Backing, which the cache hierarchy and host DMA read and write directly,
// so a read response carries no bytes.
type DRAM struct {
	eng  *sim.Engine
	name string

	busy sim.Time
	site *fault.Site // bit-flip fault site (the DRAM's own name)

	// Instruments, resolved at construction.
	cReads      *sim.Counter
	cWrites     *sim.Counter
	cReadBytes  *sim.Counter
	cWriteBytes *sim.Counter
	cConflicts  *sim.Counter // accesses that found the channel busy
	cConfCycles *sim.Counter // cycles those accesses waited
	cEccFixed   *sim.Counter // single-bit errors SECDED corrected
	cEccFatal   *sim.Counter // double-bit errors SECDED detected (OK:false)

	ops      sim.FreeList[dramOp]
	answerFn func(any) // bound once; arg is the *dramOp
}

// dramOp is one access waiting out its latency, recycled when it answers.
// It copies what the answer needs from the transfer, which the master may
// recycle once done runs.
type dramOp struct {
	id    axi.ID
	write bool
	done  func(axi.Resp)
}

// NewDRAM creates a DRAM channel.
func NewDRAM(eng *sim.Engine, name string, stats *sim.Stats) *DRAM {
	d := &DRAM{
		eng: eng, name: name,
		cReads:      stats.Counter(name + ".reads"),
		cWrites:     stats.Counter(name + ".writes"),
		cReadBytes:  stats.Counter(name + ".read_bytes"),
		cWriteBytes: stats.Counter(name + ".write_bytes"),
		cConflicts:  stats.Counter(name + ".conflicts"),
		cConfCycles: stats.Counter(name + ".conflict_cycles"),
		cEccFixed:   stats.Counter(name + ".ecc_corrected"),
		cEccFatal:   stats.Counter(name + ".ecc_uncorrectable"),
	}
	d.answerFn = func(v any) { d.answer(v.(*dramOp)) }
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
	beats := max(sim.Time((n+dramBytesPerCycle-1)/dramBytesPerCycle), 1)
	start := d.eng.Now()
	if d.busy > start {
		d.cConflicts.Inc()
		d.cConfCycles.Add(uint64(d.busy - start))
		start = d.busy
	}
	d.busy = start + beats
	return (start - d.eng.Now()) + beats + DRAMLatency
}

// Do answers a transfer after the access latency. The SECDED model runs on
// the read path: a single-bit upset is corrected transparently (counted), a
// double-bit upset is detected but uncorrectable and fails the read.
func (d *DRAM) Do(t *axi.Txn, done func(axi.Resp)) {
	n := t.Size()
	count, bytes := d.cReads, d.cReadBytes
	if t.Write {
		count, bytes = d.cWrites, d.cWriteBytes
	}
	count.Inc()
	bytes.Add(uint64(n))
	op := d.ops.Get()
	*op = dramOp{id: t.ID, write: t.Write, done: done}
	d.eng.ScheduleArg(d.delay(n), d.answerFn, op)
}

// answer completes an access once its latency has passed.
func (d *DRAM) answer(op *dramOp) {
	resp := axi.Resp{ID: op.id, OK: true}
	write, done := op.write, op.done
	*op = dramOp{}
	d.ops.Put(op)
	if !write {
		switch d.site.FlipBits() {
		case 1:
			d.cEccFixed.Inc()
		case 2:
			d.cEccFatal.Inc()
			resp.OK = false
		}
	}
	done(resp)
}

var _ axi.Target = (*DRAM)(nil)
