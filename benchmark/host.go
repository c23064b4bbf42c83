package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo is recorded with every result: host-time numbers mean nothing
// without it, and the sharded workload is only comparable at equal Nproc.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	// ScratchFS is the filesystem under .bench_build, where the result
	// cache, the fleet journal and the checkpoints are written.
	ScratchFS string `json:"scratch_fs"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s, scratch on %s",
		h.Nproc, h.GOMAXPROCS, h.CPU, h.Go, h.ScratchFS)
}

func readHostInfo(scratch string) hostInfo {
	h := hostInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		ScratchFS:  fsName(scratch),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.Join(strings.Fields(v), " ")
				break
			}
		}
	}
	return h
}

// fsName names the filesystem a path lives on, from its statfs magic.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs-%#x", int64(st.Type))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the VmHWM high-water mark from the current resident
// set (Linux: writing 5 to clear_refs). Where the kernel refuses, the mark
// stays the whole process's and peakRSSMB reads that.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // refusal handled as described above
}

// scratchRoot is where the harness keeps every file it writes: under the
// current directory, so a run stays inside its checkout.
const scratchRoot = ".bench_build"

// scratchDir creates a fresh private directory under scratchRoot.
func scratchDir(tag string) (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-"+tag+"-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
