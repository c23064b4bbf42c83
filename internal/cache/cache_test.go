package cache

import (
	"testing"

	"smappic/internal/mem"
	"smappic/internal/sim"
)

// fakeConn wires Private caches and Slices directly with a fixed message
// latency, standing in for the mesh+bridge transport the platform provides.
type fakeConn struct {
	eng    *sim.Engine
	lat    sim.Time
	memLat sim.Time
	privs  map[GID]*Private
	slices map[GID]*Slice
}

func newFakeConn(eng *sim.Engine) *fakeConn {
	return &fakeConn{
		eng: eng, lat: 5, memLat: 80,
		privs:  make(map[GID]*Private),
		slices: make(map[GID]*Slice),
	}
}

func (f *fakeConn) SendProto(from, to GID, msg *Msg) {
	f.eng.Schedule(f.lat, func() {
		switch msg.Op {
		case GetS, GetM, PutS, PutM, InvAck, DownAck:
			f.slices[to].HandleMsg(msg)
		default:
			f.privs[to].HandleMsg(msg)
		}
	})
}

func (f *fakeConn) SendMem(from GID, req *mem.Req) {
	f.eng.Schedule(f.memLat, func() {
		f.slices[from].HandleMemResp(req)
	})
}

// rig is a test system: nPriv private caches, one home slice at GID{0,99}.
type rig struct {
	eng   *sim.Engine
	conn  *fakeConn
	privs []*Private
	home  *Slice
	stats *sim.Stats
}

func newRig(t *testing.T, nPriv int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	conn := newFakeConn(eng)
	var stats sim.Stats
	homeID := GID{Node: 0, Tile: 99}
	homeFn := func(line uint64) GID { return homeID }
	r := &rig{eng: eng, conn: conn, stats: &stats}
	p := DefaultParams()
	for i := 0; i < nPriv; i++ {
		id := GID{Node: 0, Tile: i}
		pc := NewPrivate(eng, id, p, conn, homeFn, &stats, "priv")
		conn.privs[id] = pc
		r.privs = append(r.privs, pc)
	}
	r.home = NewSlice(eng, homeID, p, conn, &stats, "home")
	conn.slices[homeID] = r.home
	return r
}

// load issues a blocking load from cache i and runs to completion.
func (r *rig) load(i int, addr uint64) {
	done := false
	r.privs[i].Load(addr, func() { done = true })
	r.eng.Run()
	if !done {
		panic("load never completed")
	}
}

func (r *rig) store(i int, addr uint64) {
	done := false
	r.privs[i].Store(addr, func() { done = true })
	r.eng.Run()
	if !done {
		panic("store never completed")
	}
}

func TestFirstReaderGetsExclusive(t *testing.T) {
	r := newRig(t, 2)
	r.load(0, 0x1000)
	if got := r.privs[0].State(0x1000); got != "E" {
		t.Fatalf("sole reader state = %s, want E", got)
	}
	if st, _ := r.home.DirState(0x1000); st != "E" {
		t.Fatalf("directory state = %s, want E", st)
	}
}

func TestSecondReaderSharesLine(t *testing.T) {
	r := newRig(t, 2)
	r.load(0, 0x1000)
	r.load(1, 0x1000)
	if a, b := r.privs[0].State(0x1000), r.privs[1].State(0x1000); a != "S" || b != "S" {
		t.Fatalf("states after second read = %s/%s, want S/S", a, b)
	}
	if st, n := r.home.DirState(0x1000); st != "S" || n != 2 {
		t.Fatalf("directory = %s with %d holders, want S with 2", st, n)
	}
}

func TestWriterInvalidatesSharers(t *testing.T) {
	r := newRig(t, 3)
	r.load(0, 0x2000)
	r.load(1, 0x2000)
	r.store(2, 0x2000)
	if got := r.privs[2].State(0x2000); got != "M" {
		t.Fatalf("writer state = %s, want M", got)
	}
	if a, b := r.privs[0].State(0x2000), r.privs[1].State(0x2000); a != "I" || b != "I" {
		t.Fatalf("old sharers = %s/%s, want I/I", a, b)
	}
	if st, _ := r.home.DirState(0x2000); st != "E" {
		t.Fatalf("directory = %s, want E (owned)", st)
	}
}

func TestSilentUpgradeFromExclusive(t *testing.T) {
	r := newRig(t, 1)
	r.load(0, 0x3000)
	before := r.stats.Get("home.GetM")
	r.store(0, 0x3000)
	if got := r.privs[0].State(0x3000); got != "M" {
		t.Fatalf("state after E-store = %s, want M", got)
	}
	if after := r.stats.Get("home.GetM"); after != before {
		t.Fatal("E->M upgrade generated a GetM; should be silent")
	}
}

func TestReadAfterWriteDowngradesOwner(t *testing.T) {
	r := newRig(t, 2)
	r.store(0, 0x4000)
	r.load(1, 0x4000)
	if a, b := r.privs[0].State(0x4000), r.privs[1].State(0x4000); a != "S" || b != "S" {
		t.Fatalf("states = %s/%s, want S/S after downgrade", a, b)
	}
	if r.stats.Get("priv.downgrade_rx") == 0 {
		t.Error("owner never saw a Downgrade probe")
	}
	if st, n := r.home.DirState(0x4000); st != "S" || n != 2 {
		t.Fatalf("directory = %s/%d, want S/2", st, n)
	}
}

func TestWriteAfterWriteMovesOwnership(t *testing.T) {
	r := newRig(t, 2)
	r.store(0, 0x5000)
	r.store(1, 0x5000)
	if a, b := r.privs[0].State(0x5000), r.privs[1].State(0x5000); a != "I" || b != "M" {
		t.Fatalf("states = %s/%s, want I/M", a, b)
	}
}

func TestL1HitIsFast(t *testing.T) {
	r := newRig(t, 1)
	r.load(0, 0x6000)
	start := r.eng.Now()
	var doneAt sim.Time
	r.privs[0].Load(0x6000, func() { doneAt = r.eng.Now() })
	r.eng.Run()
	if doneAt-start != 1 {
		t.Fatalf("L1 hit took %d cycles, want 1", doneAt-start)
	}
}

func TestMissLatencyIncludesMemory(t *testing.T) {
	r := newRig(t, 1)
	start := r.eng.Now()
	var doneAt sim.Time
	r.privs[0].Load(0x7000, func() { doneAt = r.eng.Now() })
	r.eng.Run()
	lat := doneAt - start
	// L1(1) + BPC(3) + msg(5) + LLC(8) + mem(80) + msg(5) ~ 102.
	if lat < 90 || lat > 120 {
		t.Fatalf("cold miss latency = %d, want ~102", lat)
	}
}

func TestLLCHitAvoidsMemory(t *testing.T) {
	r := newRig(t, 2)
	r.load(0, 0x8000)
	memReads := r.stats.Get("home.llc_miss")
	r.load(1, 0x8000)
	if got := r.stats.Get("home.llc_miss"); got != memReads {
		t.Fatal("second reader caused an LLC miss")
	}
}

func TestBPCEvictionSendsPut(t *testing.T) {
	r := newRig(t, 1)
	p := DefaultParams()
	setSpan := uint64(p.BPCSizeBytes / Ways) // lines mapping to set 0
	// Fill one BPC set beyond capacity with clean lines.
	for i := 0; i <= Ways; i++ {
		r.load(0, uint64(i)*setSpan)
	}
	if r.stats.Get("priv.evict_clean") == 0 {
		t.Error("no clean eviction notice sent")
	}
	// Dirty eviction.
	r2 := newRig(t, 1)
	r2.store(0, 0)
	for i := 1; i <= Ways; i++ {
		r2.store(0, uint64(i)*setSpan)
	}
	if r2.stats.Get("priv.writeback") == 0 {
		t.Error("no dirty writeback sent")
	}
}

func TestPutSCleansDirectory(t *testing.T) {
	r := newRig(t, 1)
	p := DefaultParams()
	setSpan := uint64(p.BPCSizeBytes / Ways)
	r.load(0, 0)
	for i := 1; i <= Ways; i++ {
		r.load(0, uint64(i)*setSpan)
	}
	// Line 0 was evicted; directory should no longer count the evicter.
	if st, n := r.home.DirState(0); st != "I" || n != 0 {
		t.Fatalf("directory after eviction = %s/%d, want I/0", st, n)
	}
}

func TestMSHRCoalescing(t *testing.T) {
	r := newRig(t, 1)
	done := 0
	for i := 0; i < 3; i++ {
		r.privs[0].Load(0x9000+uint64(i*8), func() { done++ })
	}
	r.eng.Run()
	if done != 3 {
		t.Fatalf("%d loads completed, want 3", done)
	}
	if r.stats.Get("priv.mshr_coalesce") != 2 {
		t.Fatalf("coalesced %d, want 2", r.stats.Get("priv.mshr_coalesce"))
	}
	if r.stats.Get("home.GetS") != 1 {
		t.Fatalf("home saw %d GetS, want 1", r.stats.Get("home.GetS"))
	}
}

func TestMSHRExhaustionStallsAndRecovers(t *testing.T) {
	r := newRig(t, 1)
	done := 0
	n := maxMSHRs + 4
	for i := 0; i < n; i++ {
		r.privs[0].Load(uint64(i)*LineBytes*512, func() { done++ })
	}
	r.eng.Run()
	if done != n {
		t.Fatalf("%d loads completed, want %d", done, n)
	}
	if r.stats.Get("priv.mshr_stall") == 0 {
		t.Error("expected MSHR stalls")
	}
	if r.privs[0].OutstandingMisses() != 0 {
		t.Error("MSHRs leaked")
	}
}

func TestStoreCoalescedOntoReadMissEscalates(t *testing.T) {
	r := newRig(t, 2)
	// Someone else holds the line so the GetS is slow enough to overlap.
	r.store(1, 0xA000)
	loads, stores := 0, 0
	r.privs[0].Load(0xA000, func() { loads++ })
	r.privs[0].Store(0xA008, func() { stores++ })
	r.eng.Run()
	if loads != 1 || stores != 1 {
		t.Fatalf("loads=%d stores=%d, want 1/1", loads, stores)
	}
	if got := r.privs[0].State(0xA000); got != "M" {
		t.Fatalf("final state = %s, want M (store escalated)", got)
	}
}

func TestLLCEvictionBackInvalidates(t *testing.T) {
	r := newRig(t, 1)
	p := DefaultParams()
	llcSpan := uint64(p.LLCSliceSize / Ways)
	// Touch ways+1 lines that collide in one LLC set but spread over BPC
	// sets (llcSpan is a multiple of the BPC span, so use odd multiples).
	for i := 0; i <= Ways; i++ {
		r.load(0, uint64(i)*llcSpan)
	}
	if r.stats.Get("home.back_inval") == 0 {
		t.Error("LLC eviction did not back-invalidate private copies")
	}
	// The back-invalidated line must be gone from the BPC.
	if got := r.privs[0].State(0); got != "I" {
		t.Fatalf("BPC state after back-inval = %s, want I", got)
	}
}

func TestConcurrentWritersSerializedByHome(t *testing.T) {
	r := newRig(t, 4)
	done := 0
	for i := 0; i < 4; i++ {
		r.privs[i].Store(0xB000, func() { done++ })
	}
	r.eng.Run()
	if done != 4 {
		t.Fatalf("%d stores completed, want 4", done)
	}
	// Exactly one M holder at the end.
	holders := 0
	for i := 0; i < 4; i++ {
		if r.privs[i].State(0xB000) == "M" {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("%d M holders, want exactly 1", holders)
	}
	if r.stats.Get("home.queued") == 0 {
		t.Error("home never queued a conflicting transaction")
	}
}

// TestCoherenceInvariantRandom drives random loads/stores from several
// caches and checks the single-writer/multiple-reader invariant and
// BPC-directory agreement after quiescing.
func TestCoherenceInvariantRandom(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := newRig(t, 4)
		rng := sim.NewRNG(seed)
		pendingDone := 0
		issued := 0
		for step := 0; step < 400; step++ {
			c := rng.Intn(4)
			addr := uint64(rng.Intn(64)) * LineBytes
			issued++
			if rng.Intn(2) == 0 {
				r.privs[c].Load(addr, func() { pendingDone++ })
			} else {
				r.privs[c].Store(addr, func() { pendingDone++ })
			}
			if rng.Intn(4) == 0 {
				r.eng.Run() // quiesce occasionally to vary interleaving
			}
		}
		r.eng.Run()
		if pendingDone != issued {
			t.Fatalf("seed %d: %d/%d accesses completed", seed, pendingDone, issued)
		}
		for lineIdx := 0; lineIdx < 64; lineIdx++ {
			line := uint64(lineIdx) * LineBytes
			var m, e, s int
			for _, pc := range r.privs {
				switch pc.State(line) {
				case "M":
					m++
				case "E":
					e++
				case "S":
					s++
				}
			}
			if m+e > 1 || (m+e == 1 && s > 0) {
				t.Fatalf("seed %d line %#x: invariant violated M=%d E=%d S=%d", seed, line, m, e, s)
			}
			dirSt, holders := r.home.DirState(line)
			priv := m + e + s
			if priv > 0 && dirSt == "I" {
				t.Fatalf("seed %d line %#x: %d private copies but directory I", seed, line, priv)
			}
			if dirSt == "S" && holders < s {
				t.Fatalf("seed %d line %#x: directory tracks %d sharers, caches hold %d", seed, line, holders, s)
			}
		}
	}
}

// TestDeterministicTiming verifies the full protocol stack is reproducible.
func TestDeterministicTiming(t *testing.T) {
	run := func() sim.Time {
		r := newRig(t, 4)
		rng := sim.NewRNG(99)
		for step := 0; step < 200; step++ {
			c := rng.Intn(4)
			addr := uint64(rng.Intn(32)) * LineBytes
			if rng.Intn(2) == 0 {
				r.privs[c].Load(addr, func() {})
			} else {
				r.privs[c].Store(addr, func() {})
			}
		}
		return r.eng.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic final time: %d vs %d", a, b)
	}
}

func TestSetAssocLRU(t *testing.T) {
	c := newSetAssoc(Ways * LineBytes) // one set
	for i := uint64(0); i < 4; i++ {
		c.insert(i*LineBytes, stShared)
	}
	c.lookup(0) // make line 0 most recently used
	v, ev := c.insert(4*LineBytes, stShared)
	if !ev || v.line != 1*LineBytes {
		t.Fatalf("evicted %#x (evicted=%v), want line 0x40 (LRU)", v.line, ev)
	}
	if c.peek(0) == nil {
		t.Error("MRU line was evicted")
	}
}

func TestSetAssocInsertExistingUpdatesState(t *testing.T) {
	c := newSetAssoc(Ways * LineBytes)
	c.insert(0, stShared)
	_, ev := c.insert(0, stModified)
	if ev {
		t.Error("re-insert evicted something")
	}
	if c.peek(0).st != stModified {
		t.Error("state not updated in place")
	}
	valid := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.st != stInvalid {
				valid++
			}
		}
	}
	if valid != 1 {
		t.Errorf("valid lines = %d, want 1", valid)
	}
}

func TestSetAssocBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	newSetAssoc(3 * LineBytes)
}

func TestLineOf(t *testing.T) {
	if LineOf(0x1234) != 0x1200 {
		t.Fatalf("LineOf(0x1234) = %#x", LineOf(0x1234))
	}
}

func TestMsgFlitsAndClass(t *testing.T) {
	if (&Msg{Op: DataS}).Flits() != 9 {
		t.Error("data grant should be 9 flits")
	}
	if (&Msg{Op: GetS}).Flits() != 3 {
		t.Error("request should be 3 flits")
	}
	if (&Msg{Op: InvAck}).Flits() != 1 {
		t.Error("ack should be 1 flit")
	}
	if (&Msg{Op: GetS}).Class() != 0 || (&Msg{Op: DataM}).Class() != 1 || (&Msg{Op: DownAck}).Class() != 2 {
		t.Error("message classes misassigned")
	}
}

// The L1-hit fast path of a cache built with its registry, as every
// prototype builds it, allocates nothing: the engine pools its event records
// and the hit counter is resolved at construction, so anything more means
// telemetry (or a capture closure) leaked into the fast path.
func TestL1HitFastPathAllocations(t *testing.T) {
	r := newRig(t, 1)
	done := func() {}
	warm := false
	r.privs[0].Load(0x1000, func() { warm = true })
	r.eng.Run()
	if !warm {
		t.Fatal("warm-up load never completed")
	}
	if avg := testing.AllocsPerRun(200, func() {
		r.privs[0].Load(0x1000, done)
		r.eng.Run()
	}); avg != 0 {
		t.Fatalf("L1 hit allocates %.1f/op, want 0", avg)
	}
}

// A miss must appear in the hit/miss counters, the miss-latency histogram
// and the MSHR occupancy gauge.
func TestCacheTelemetryOnMiss(t *testing.T) {
	r := newRig(t, 1)
	r.load(0, 0x4000)

	if got := r.stats.Get("priv.l1_miss"); got != 1 {
		t.Fatalf("l1_miss = %d, want 1", got)
	}
	if got := r.stats.Get("priv.bpc_miss"); got != 1 {
		t.Fatalf("bpc_miss = %d, want 1", got)
	}
	h := r.stats.FindHistogram("priv.miss_latency")
	if h == nil || h.Samples != 1 {
		t.Fatalf("miss_latency histogram missing or empty: %+v", h)
	}
	if h.Min < 80 {
		t.Fatalf("miss latency %d cycles, want >= memory latency 80", h.Min)
	}
	g, ok := r.stats.GaugeValue("priv.mshr_occ")
	if !ok || g != 0 {
		t.Fatalf("mshr_occ = %d,%v, want 0 after completion", g, ok)
	}

	r.load(0, 0x4000) // now an L1 hit
	if got := r.stats.Get("priv.l1_hit"); got != 1 {
		t.Fatalf("l1_hit = %d, want 1", got)
	}
	if h.Samples != 1 {
		t.Fatalf("L1 hit observed a miss latency: n=%d", h.Samples)
	}
}

// The LLC slice must record directory-queue depth and memory round trips.
func TestLLCTelemetry(t *testing.T) {
	r := newRig(t, 1)
	r.load(0, 0x8000)
	h := r.stats.FindHistogram("home.mem_latency")
	if h == nil || h.Samples != 1 {
		t.Fatalf("mem_latency histogram missing or empty: %+v", h)
	}
	if h.Min < 80 {
		t.Fatalf("memory latency %d, want >= 80", h.Min)
	}
	if _, ok := r.stats.GaugeValue("home.dir_queue"); !ok {
		t.Fatal("dir_queue gauge never registered")
	}
}
