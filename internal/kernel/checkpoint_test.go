package kernel

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"smappic/internal/ckpt"
	"smappic/internal/ckpt/ckpttest"
	"smappic/internal/core"
)

// cutTarget boots the kernel the restore tests capture from and restore
// into: 2x1x2, an eight-page buffer and one barrier, allocated in that order.
func cutTarget(t testing.TB) (*core.Prototype, *Kernel, *Barrier, uint64) {
	cfg := core.DefaultConfig(2, 1, 2)
	cfg.Core = core.CoreNone
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := New(p, DefaultConfig())
	buf := k.Alloc(8 * PageBytes)
	return p, k, k.NewBarrier(4), buf
}

// pristineCut runs one thread per hart over two pages each, through the
// barrier, and captures the kernel with a resume point per thread.
func pristineCut(t testing.TB) *ckpt.State {
	p, k, bar, buf := cutTarget(t)
	defer p.Close()
	for h := 0; h < 4; h++ {
		k.Spawn(fmt.Sprint("t", h), []int{h}, func(c *Ctx) {
			for i := uint64(0); i < 2; i++ {
				c.Store(buf+(uint64(2*h)+i)*PageBytes, 8, i)
			}
			bar.Wait(c)
		})
	}
	end := uint64(k.Join())
	ws := &ckpt.WorkloadState{Name: "cut"}
	for h := 0; h < 4; h++ {
		ws.Resume = append(ws.Resume, ckpt.ResumePoint{Thread: h, ResumeAt: end + uint64(h)})
	}
	return &ckpt.State{Kernel: k.CaptureState(bar), Workload: ws}
}

// restoreCut applies a kernel section the way a resumed workload does —
// RestoreState, one Resumer.Spawn per thread row, Release — on a fresh
// build, and runs nothing.
func restoreCut(t testing.TB, st *ckpt.State) error {
	p, k, bar, _ := cutTarget(t)
	defer p.Close()
	if err := k.RestoreState(st.Kernel, bar); err != nil {
		return err
	}
	r := k.NewResumer()
	for _, ts := range st.Kernel.Threads {
		if _, err := r.Spawn(fmt.Sprint("t", ts.ID), k.AllHarts(), ts, bar, func(*Ctx) {}); err != nil {
			return err
		}
	}
	var resume []ckpt.ResumePoint
	if st.Workload != nil {
		resume = st.Workload.Resume
	}
	return r.Release(resume)
}

// errKind names the class of a restore error: "" for none, "corrupt" or
// "mismatch" for ckpt's typed errors, anything else for an untyped one.
func errKind(err error) string {
	var ce *ckpt.CorruptError
	var me *ckpt.MismatchError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &ce):
		return "corrupt"
	case errors.As(err, &me):
		return "mismatch"
	}
	return fmt.Sprintf("untyped %T (%v)", err, err)
}

// hostileCut is a pristine capture with one row made wrong, and the errKind
// restore must answer it with.
type hostileCut struct {
	name string
	st   *ckpt.State
	want string
}

func hostileCuts(t testing.TB) []hostileCut {
	mutations := []struct {
		name   string
		mutate func(st *ckpt.State)
		want   string
	}{
		{"pristine", func(*ckpt.State) {}, ""},
		{"page-phys-off-its-frame", func(st *ckpt.State) { st.Kernel.Pages[0].Phys += PageBytes }, "corrupt"},
		{"page-on-an-absent-node", func(st *ckpt.State) { st.Kernel.Pages[0].Phys += 2 * core.NodeDRAMSize }, "corrupt"},
		{"page-below-the-heap", func(st *ckpt.State) { st.Kernel.Pages[0].VPage = 1 }, "corrupt"},
		{"page-past-main-memory", func(st *ckpt.State) { st.Kernel.Pages[0].VPage = 1 << 62 }, "corrupt"},
		{"tlb-phys-off-its-frame", func(st *ckpt.State) { st.Kernel.Threads[2].TLB[0].Phys -= PageBytes }, "corrupt"},
		{"hart-out-of-range", func(st *ckpt.State) { st.Kernel.Threads[1].Hart = 4 }, "corrupt"},
		{"thread-ids-out-of-order", func(st *ckpt.State) {
			st.Kernel.Threads[0], st.Kernel.Threads[1] = st.Kernel.Threads[1], st.Kernel.Threads[0]
		}, "mismatch"},
		{"resume-for-an-unspawned-thread", func(st *ckpt.State) {
			st.Workload.Resume = append(st.Workload.Resume, ckpt.ResumePoint{Thread: 4})
		}, "corrupt"},
	}
	var out []hostileCut
	for _, m := range mutations {
		st := pristineCut(t)
		m.mutate(st)
		out = append(out, hostileCut{m.name, st, m.want})
	}
	return out
}

// TestRestoreChecksEveryFrame: every page and TLB row must map its page to
// its direct-mapped frame on a node of this platform, every thread row must
// name a hart of it and come in spawn order, and every resume point must
// name a spawned thread.
func TestRestoreChecksEveryFrame(t *testing.T) {
	for _, c := range hostileCuts(t) {
		if got := errKind(restoreCut(t, c.st)); got != c.want {
			t.Errorf("%s: restore error %q, want %q", c.name, got, c.want)
		}
	}
}

// FuzzRestoreState feeds kernel sections sealed as state snapshots through
// RestoreState, Resumer.Spawn for each thread row and Release on a fresh
// 2x1x2 build. Restore must accept a section or return one of ckpt's typed
// errors, never panic, whatever the rows say. The seeds are hostileCuts.
func FuzzRestoreState(f *testing.F) {
	for _, c := range hostileCuts(f) {
		var file bytes.Buffer
		if err := (&ckpt.Snapshot{Kind: ckpt.KindState, State: c.st}).Write(&file); err != nil {
			f.Fatal(err)
		}
		f.Add(file.Bytes()[17 : file.Len()-sha256.Size]) // header: magic, version, kind, length
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ckpt.Read(bytes.NewReader(ckpttest.Seal(ckpt.Version, ckpt.KindState, data)))
		if err != nil || s.State.Kernel == nil {
			return // FuzzRead's half
		}
		switch kind := errKind(restoreCut(t, s.State)); kind {
		case "", "corrupt", "mismatch":
		default:
			t.Errorf("restore error is not one of ckpt's typed errors: %s", kind)
		}
	})
}
