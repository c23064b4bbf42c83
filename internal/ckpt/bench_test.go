package ckpt_test

import (
	"os"
	"path/filepath"
	"testing"

	"smappic/internal/ckpt"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/workload"
)

// firstBarrierSnapshot is the state snapshot the checkpoint cadence cuts
// most often: NPB-IS (8192 keys) on the paper's 4x1x12 shape at its first
// phase barrier — 48 tiles of tag arrays, the key pages, 48 thread contexts.
// It is cut and assembled the way a checkpointing campaign job's is.
func firstBarrierSnapshot(b *testing.B) *ckpt.Snapshot {
	b.Helper()
	cfg := core.DefaultConfig(4, 1, 12)
	cfg.Core = core.CoreNone
	cfg.Seed = 1
	p, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ip := workload.DefaultISParams(cfg.TotalTiles())
	ip.Keys, ip.Seed = 1<<13, 1
	ip.Affinity = make([]int, cfg.TotalTiles()) // every hart, named as a campaign job names them
	for h := range ip.Affinity {
		ip.Affinity[h] = h
	}
	_, ic := workload.RunISCut(kernel.New(p, kernel.DefaultConfig()), ip, &workload.CutPlan{After: 1})
	if ic == nil {
		b.Fatal("the IS run finished before its first barrier cut")
	}
	st, err := p.CaptureState()
	if err != nil {
		b.Fatal(err)
	}
	st.Kernel, st.Workload = ic.KernelState(), ic.WorkloadState()
	return &ckpt.Snapshot{Kind: ckpt.KindState, ConfigHash: cfg.ConfigHash(),
		Workload: p.WorkloadTag, Now: uint64(p.Now()), State: st}
}

// snapshotFile writes snap and returns the path and the file size, which
// both benchmarks report throughput against.
func snapshotFile(b *testing.B, snap *ckpt.Snapshot) (string, int64) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	if err := snap.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, info.Size()
}

// BenchmarkSnapshotWrite: encode, seal and write one snapshot file.
func BenchmarkSnapshotWrite(b *testing.B) {
	snap := firstBarrierSnapshot(b)
	path, size := snapshotFile(b, snap)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snap.WriteFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

var readBack *ckpt.Snapshot

// BenchmarkSnapshotRead: read, verify and decode one snapshot file.
func BenchmarkSnapshotRead(b *testing.B) {
	path, size := snapshotFile(b, firstBarrierSnapshot(b))
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if readBack, err = ckpt.ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
