package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"smappic/internal/axi"
	"smappic/internal/fault"
	"smappic/internal/noc"
	"smappic/internal/sim"
)

func TestBackingReadWriteRoundTrip(t *testing.T) {
	b := NewBacking()
	b.WriteU64(0x1000, 0xDEADBEEFCAFEF00D)
	if got := b.ReadU64(0x1000); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("ReadU64 = %#x", got)
	}
	// Little-endian byte order.
	if got := b.ReadU8(0x1000); got != 0x0D {
		t.Fatalf("low byte = %#x, want 0x0D", got)
	}
	b.WriteU32(0x2000, 0x12345678)
	if got := b.ReadU32(0x2000); got != 0x12345678 {
		t.Fatalf("ReadU32 = %#x", got)
	}
	b.WriteU16(0x3001, 0xBEEF)
	if got := b.ReadU16(0x3001); got != 0xBEEF {
		t.Fatalf("ReadU16 = %#x", got)
	}
}

func TestBackingCrossPageAccess(t *testing.T) {
	b := NewBacking()
	// Write spanning a page boundary.
	addr := uint64(1<<pageBits) - 3
	src := []byte{1, 2, 3, 4, 5, 6}
	b.WriteBytes(addr, src)
	dst := make([]byte, 6)
	b.ReadBytes(addr, dst)
	if !bytes.Equal(src, dst) {
		t.Fatalf("cross-page read = %v, want %v", dst, src)
	}
}

func TestBackingSparseFootprint(t *testing.T) {
	b := NewBacking()
	b.WriteU8(0, 1)
	b.WriteU8(1<<40, 1) // distant address
	if got := len(b.pages); got != 2 {
		t.Fatalf("%d pages allocated, want two", got)
	}
}

func TestBackingUnalignedPanics(t *testing.T) {
	b := NewBacking()
	defer func() {
		if recover() == nil {
			t.Error("unaligned ReadU64 did not panic")
		}
	}()
	b.ReadU64(0x1001)
}

// Property: WriteBytes/ReadBytes round-trips arbitrary data at arbitrary
// addresses.
func TestBackingRoundTripProperty(t *testing.T) {
	b := NewBacking()
	f := func(addr uint32, data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		b.WriteBytes(uint64(addr), data)
		out := make([]byte, len(data))
		b.ReadBytes(uint64(addr), out)
		return bytes.Equal(data, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDRAMLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, "dram", &sim.Stats{})

	var wrAt sim.Time
	d.Do(&axi.Txn{Write: true, Addr: 0x40, Data: []byte{0xAA, 0xBB}}, func(axi.Resp) { wrAt = eng.Now() })
	eng.Run()
	if wrAt != DRAMLatency+1 { // latency + 1 beat
		t.Fatalf("write completed at %d, want %d", wrAt, DRAMLatency+1)
	}
}

func TestDRAMBandwidthSerializes(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, "dram", &sim.Stats{})
	var times []sim.Time
	for i := 0; i < 3; i++ {
		d.Do(&axi.Txn{Addr: 0, Len: 64}, func(axi.Resp) { times = append(times, eng.Now()) })
	}
	eng.Run()
	if len(times) != 3 {
		t.Fatalf("got %d completions", len(times))
	}
	// Each 64B read = 1 beat; they serialize 1 cycle apart.
	if times[1] != times[0]+1 || times[2] != times[1]+1 {
		t.Fatalf("bandwidth not serialized: %v", times)
	}
}

func TestShaperAddsLatency(t *testing.T) {
	// The same two back-to-back reads, straight to a channel and through a
	// 50-cycle shaper: each shaped read lands exactly 50 cycles later.
	reads := func(shaped bool) ([]sim.Time, *sim.Stats) {
		eng := sim.NewEngine()
		stats := &sim.Stats{}
		var tgt axi.Target = NewDRAM(eng, "dram", stats)
		if shaped {
			tgt = axi.NewShaper(eng, tgt, 50, stats, "shaper")
		}
		var times []sim.Time
		for i := 0; i < 2; i++ {
			tgt.Do(&axi.Txn{Addr: 0, Len: 64}, func(axi.Resp) { times = append(times, eng.Now()) })
		}
		eng.Run()
		return times, stats
	}
	plain, _ := reads(false)
	shaped, stats := reads(true)
	if len(plain) != 2 || len(shaped) != 2 {
		t.Fatalf("completions: plain %v, shaped %v", plain, shaped)
	}
	for i := range plain {
		if shaped[i] != plain[i]+50 {
			t.Errorf("shaped read %d at %d, want %d", i, shaped[i], plain[i]+50)
		}
	}
	if got := stats.Get("shaper.shaped_bytes"); got != 128 {
		t.Errorf("shaped_bytes = %d, want 128", got)
	}
}

// controllerHarness wires a controller to a 1x2 mesh and a DRAM.
func controllerHarness(ids int) (*sim.Engine, *noc.Mesh, *Controller, *[]Req) {
	eng := sim.NewEngine()
	stats := &sim.Stats{}
	mesh := noc.New(eng, "mesh", noc.DefaultParams(2, 1), stats)
	dram := NewDRAM(eng, "dram", stats)
	ctl := NewController(eng, mesh, "memctl", dram, stats)
	if ids > 0 {
		ctl.IDsPerEngine = ids
	}
	mesh.AttachChipset(ctl.Handle)
	resps := &[]Req{}
	mesh.AttachTile(1, func(p *noc.Packet) {
		*resps = append(*resps, *p.Payload.(*Req))
	})
	return eng, mesh, ctl, resps
}

func sendMemReq(mesh *noc.Mesh, req *Req) {
	data := 0
	if req.Write {
		data = req.Size
	}
	mesh.Send(&noc.Packet{
		Class:   noc.NoC3,
		Src:     req.Src,
		Dst:     noc.Dest{Port: noc.PortChipset},
		Flits:   FlitsFor(data),
		Payload: req,
	})
}

func TestControllerReadRoundTrip(t *testing.T) {
	eng, mesh, _, resps := controllerHarness(0)
	sendMemReq(mesh, &Req{Addr: 0x1234, Size: 16, Src: noc.Dest{Port: noc.PortTile, Tile: 1}, Tag: 99})
	end := eng.Run()
	if len(*resps) != 1 {
		t.Fatalf("got %d responses", len(*resps))
	}
	r := (*resps)[0]
	if r.Tag != 99 || r.Write || r.Addr != 0x1234 {
		t.Fatalf("bad response %+v", r)
	}
	// Paper Table 2: DRAM latency 80 cycles. NoC traversal + deserialize +
	// DRAM + NoC back should land near 80-100.
	if end < 80 || end > 110 {
		t.Fatalf("memory round trip = %d cycles, want ~80-110", end)
	}
}

func TestControllerWriteAck(t *testing.T) {
	eng, mesh, _, resps := controllerHarness(0)
	sendMemReq(mesh, &Req{Write: true, Addr: 0x40, Size: 64, Src: noc.Dest{Port: noc.PortTile, Tile: 1}, Tag: 7})
	eng.Run()
	if len(*resps) != 1 || !(*resps)[0].Write || (*resps)[0].Tag != 7 {
		t.Fatalf("bad write ack %+v", *resps)
	}
}

func TestControllerTagsPreservedAcrossOutOfOrder(t *testing.T) {
	eng, mesh, _, resps := controllerHarness(0)
	for i := uint64(0); i < 8; i++ {
		sendMemReq(mesh, &Req{Addr: i * 64, Size: 8, Src: noc.Dest{Port: noc.PortTile, Tile: 1}, Tag: i})
	}
	eng.Run()
	if len(*resps) != 8 {
		t.Fatalf("got %d responses, want 8", len(*resps))
	}
	seen := map[uint64]bool{}
	for _, r := range *resps {
		seen[r.Tag] = true
	}
	if len(seen) != 8 {
		t.Fatalf("tags collided: %+v", *resps)
	}
}

func TestControllerIDLimitQueues(t *testing.T) {
	// Counters resolve at construction, so stats must be wired up front.
	var st sim.Stats
	eng := sim.NewEngine()
	mesh := noc.New(eng, "mesh", noc.DefaultParams(2, 1), &st)
	dram := NewDRAM(eng, "dram", &st)
	ctl := NewController(eng, mesh, "memctl", dram, &st)
	ctl.IDsPerEngine = 2
	mesh.AttachChipset(ctl.Handle)
	resps := &[]Req{}
	mesh.AttachTile(1, func(p *noc.Packet) {
		*resps = append(*resps, *p.Payload.(*Req))
	})
	for i := uint64(0); i < 6; i++ {
		sendMemReq(mesh, &Req{Addr: i * 64, Size: 8, Src: noc.Dest{Port: noc.PortTile, Tile: 1}, Tag: i})
	}
	eng.Run()
	if len(*resps) != 6 {
		t.Fatalf("got %d responses, want 6", len(*resps))
	}
	if st.Get("memctl.queued") == 0 {
		t.Error("expected queueing with 2 IDs and 6 requests")
	}
}

func TestControllerReadWriteEnginesIndependent(t *testing.T) {
	// Saturate the one-ID read engine: the second read waits for the
	// first's response, and the write must not wait behind it.
	eng, mesh, _, resps := controllerHarness(1)
	sendMemReq(mesh, &Req{Addr: 0, Size: 8, Src: noc.Dest{Port: noc.PortTile, Tile: 1}, Tag: 1})
	sendMemReq(mesh, &Req{Addr: 64, Size: 8, Src: noc.Dest{Port: noc.PortTile, Tile: 1}, Tag: 2})
	sendMemReq(mesh, &Req{Write: true, Addr: 128, Size: 64, Src: noc.Dest{Port: noc.PortTile, Tile: 1}, Tag: 3})
	eng.Run()
	if len(*resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(*resps))
	}
	var order []uint64
	for _, r := range *resps {
		order = append(order, r.Tag)
	}
	if order[2] != 2 {
		t.Errorf("response order %v: write starved behind the saturated read engine", order)
	}
}

func TestFlitsFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 2, 8: 2, 9: 3, 64: 9}
	for data, want := range cases {
		if got := FlitsFor(data); got != want {
			t.Errorf("FlitsFor(%d) = %d, want %d", data, got, want)
		}
	}
}

func TestSECDEDModel(t *testing.T) {
	eng := sim.NewEngine()
	var st sim.Stats
	d := NewDRAM(eng, "node0.dram", &st)
	d.SetInjector(fault.NewInjector(fault.MustParse("node0.dram.flip:n=2;node0.dram.flip2:n=1,after=2", 3)))

	var oks []bool
	for i := 0; i < 4; i++ {
		d.Do(&axi.Txn{Addr: 0, Len: 64}, func(r axi.Resp) { oks = append(oks, r.OK) })
	}
	eng.Run()
	want := []bool{true, true, false, true} // 2 corrected, then 1 fatal
	for i, ok := range oks {
		if ok != want[i] {
			t.Fatalf("read %d OK=%v, want %v (all: %v)", i, ok, want[i], oks)
		}
	}
	if st.Get("node0.dram.ecc_corrected") != 2 {
		t.Errorf("ecc_corrected = %d, want 2", st.Get("node0.dram.ecc_corrected"))
	}
	if st.Get("node0.dram.ecc_uncorrectable") != 1 {
		t.Errorf("ecc_uncorrectable = %d, want 1", st.Get("node0.dram.ecc_uncorrectable"))
	}
}

func TestControllerCountsAXIErrors(t *testing.T) {
	eng := sim.NewEngine()
	var st sim.Stats
	mesh := noc.New(eng, "mesh", noc.DefaultParams(2, 2), &st)
	d := NewDRAM(eng, "node0.dram", &st)
	d.SetInjector(fault.NewInjector(fault.MustParse("node0.dram.flip2:p=1", 3)))
	ctl := NewController(eng, mesh, "memctl", d, &st)

	responses := 0
	mesh.AttachTile(1, func(pkt *noc.Packet) { responses++ })
	ctl.Handle(&noc.Packet{Payload: &Req{
		Addr: 0x100, Size: 64,
		Src: noc.Dest{Port: noc.PortTile, Tile: 1},
	}})
	eng.Run()
	if responses != 1 {
		t.Fatalf("requester got %d responses, want 1 (MSHR must be released)", responses)
	}
	if st.Get("memctl.axi_errors") != 1 {
		t.Errorf("axi_errors = %d, want 1", st.Get("memctl.axi_errors"))
	}
}
