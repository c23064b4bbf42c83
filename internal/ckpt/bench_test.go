package ckpt_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"smappic/internal/campaign"
	"smappic/internal/ckpt"
)

// firstBarrierSnapshot is the state snapshot the checkpoint cadence cuts
// most often: NPB-IS (8192 keys) on the paper's 4x1x12 shape at its first
// phase barrier — 48 tiles of tag arrays, the key pages, 48 thread contexts.
func firstBarrierSnapshot(b *testing.B) *ckpt.Snapshot {
	b.Helper()
	spec := campaign.Spec{Name: "bench", Shapes: []string{"4x1x12"},
		Workloads: []string{campaign.WorkloadIS}, Seeds: []uint64{1}, Keys: 1 << 13}
	jobs, err := spec.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := campaign.BuildPrefix(context.Background(), jobs[0].Params)
	if err != nil {
		b.Fatal(err)
	}
	return snap
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
