package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// cpuShares reduces a runtime/pprof CPU profile to the share of samples
// whose flat (innermost) frame falls in each layer: the "layer -> % of wall
// clock" table. A profile with no samples yields all zeros.
func cpuShares(gz []byte) (map[string]float64, error) {
	flat, err := flatProfile(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, layer := range cpuLayers {
		shares[layer] = 0
	}
	var total int64
	for _, v := range flat {
		total += v
	}
	if total == 0 {
		return shares, nil
	}
	for fn, v := range flat {
		shares[classify(fn)] += float64(v) / float64(total)
	}
	return shares, nil
}

// layerOfPackage maps this repository's packages to cpu_share buckets;
// packages not listed (dev, interrupt, fault, obs, ...) count as "other".
var layerOfPackage = map[string]string{
	"sim": "sim", "noc": "noc", "cache": "cache", "mem": "mem", "bridge": "bridge", "pcie": "pcie",
	"axi": "axi_shell", "shell": "axi_shell", "riscv": "riscv", "kernel": "kernel", "workload": "workload",
	"core": "core", "ckpt": "ckpt", "campaign": "campaign", "fleetsrv": "fleetsrv",
}

// Runtime functions by what they are doing. runtime_sched is where the
// sim.Process hand-off (channel send/receive, park/ready) and the window
// barrier's mutex and condition variable land; runtime_gc is allocation
// plus collection.
var (
	schedPrefixes = []string{"chan", "park", "gopark", "goready", "ready", "schedule", "findRunnable", "findrunnable",
		"futex", "lock", "unlock", "mcall", "sema", "notesleep", "notewakeup", "notetsleep", "usleep", "osyield",
		"runq", "wakep", "startm", "stopm", "execute", "casgstatus", "selectgo", "send", "recv", "gosched",
		"goschedImpl", "park_m", "resetspinning", "pidle", "mPark", "gogo", "systemstack", "acquirep", "releasep",
		"stealWork", "checkTimers", "nanotime", "procyield", "globrunq", "injectglist", "handoffp", "newproc",
		"gfget", "gfput", "goexit", "sync_runtime", "notifyList", "readyWithTime", "acquireSudog", "releaseSudog",
		"dequeue", "enqueue", "(*waitq)", "(*mutex)", "(*gQueue)", "(*gList)", "(*timers)", "(*timer)", "mstart",
		"(*guintptr)", "(*muintptr)", "(*puintptr)", "acquirem", "releasem", "dropg", "(*mLockProfile)", "(*rwmutex)"}
	gcPrefixes = []string{"gc", "scan", "mark", "sweep", "malloc", "memclr", "bgsweep", "bgscavenge", "heapBits",
		"(*mspan)", "(*mcache)", "(*mcentral)", "(*mheap)", "(*gcWork)", "(*gcBits)", "(*pageAlloc)", "(*scavenge",
		"(*limiterEvent)", "(*gcControllerState)", "(*gcCPULimiterState)", "greyobject", "findObject", "wbBuf",
		"growslice", "newobject", "newarray", "makeslice", "makemap", "mapassign", "nextFreeFast", "spanOf",
		"typePointers", "(*typePointers)", "(*mSpanStateBox)", "bulkBarrierPreWrite", "publicationBarrier",
		"profilealloc", "deductAssistCredit", "(*stkframe)", "(*unwinder)", "addb", "arenaIndex", "(*activeSweep)",
		"(*sweepLocked)", "(*sweepLocker)", "divRoundUp", "pcvalue", "funcspdelta", "stackpoolalloc", "newstack",
		"morestack", "copystack", "adjustframe", "(*spanSet)", "(*fixalloc)", "(*linearAlloc)", "madvise", "sysUsed",
		"sysUnused", "(*consistentHeapStats)", "(*atomicHeadTailIndex)", "(*lfstack)", "tracebackPCs", "pageIndexOf",
		"makeSpanClass", "getMCache", "(*pageCache)", "heapSetType", "persistentalloc", "newArena", "(*pallocBits)",
		"(*pallocData)", "(*pageBits)", "(*mSpanList)", "(*spanClass)", "(*gcBitsArena)", "newMarkBits", "newAllocBits"}
)

// classify names the cpu_share bucket of a function by its package. A
// generic instantiated over one of this repository's types (slices.Index
// over []sim.Time) counts for that type's package.
func classify(fn string) string {
	const ours = "smappic/internal/"
	if i := strings.Index(fn, ours); i >= 0 {
		pkg, _, _ := strings.Cut(fn[i+len(ours):], ".")
		if layer, ok := layerOfPackage[pkg]; ok {
			return layer
		}
		return "other"
	}
	hasAny := func(s string, prefixes []string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(s, p) {
				return true
			}
		}
		return false
	}
	switch {
	case strings.HasPrefix(fn, "runtime.netpoll"), strings.HasPrefix(fn, "runtime.epoll"),
		strings.HasPrefix(fn, "runtime/internal/syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime.exitsyscall"), strings.HasPrefix(fn, "runtime.entersyscall"),
		strings.HasPrefix(fn, "runtime.reentersyscall"):
		return "syscall_net"
	case fn == "gcWriteBarrier":
		return "runtime_gc"
	case strings.HasPrefix(fn, "runtime."):
		name := strings.TrimPrefix(fn, "runtime.")
		if hasAny(name, gcPrefixes) {
			return "runtime_gc"
		}
		if hasAny(name, schedPrefixes) {
			return "runtime_sched"
		}
		return "other"
	case strings.HasPrefix(fn, "sync."), strings.HasPrefix(fn, "sync/atomic."), strings.HasPrefix(fn, "internal/sync."):
		return "runtime_sched"
	case strings.Contains(fn, "encoding/"), strings.HasPrefix(fn, "reflect."), strings.HasPrefix(fn, "strconv."),
		strings.HasPrefix(fn, "unicode/"), strings.HasPrefix(fn, "fmt."):
		return "encoding"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "net."),
		strings.HasPrefix(fn, "net/"), strings.HasPrefix(fn, "os."), strings.HasPrefix(fn, "bufio."),
		strings.HasPrefix(fn, "io."), strings.HasPrefix(fn, "internal/syscall/"), strings.HasPrefix(fn, "context."):
		return "syscall_net"
	}
	return "other"
}

// flatProfile decodes a gzipped pprof protobuf just far enough to sum the
// last sample value (CPU nanoseconds) by the function of each sample's
// innermost frame. Field numbers are from pprof's profile.proto.
func flatProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	var strs []string
	locFunc := map[uint64]uint64{} // location id -> function id of its innermost line
	funcName := map[uint64]uint64{}

	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2 (both repeated, packed or not)
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				vals := []uint64{v}
				if b != nil {
					vals = varints(b)
				}
				switch num {
				case 1:
					if first && len(vals) > 0 {
						s.leaf, first = vals[0], false
					}
				case 2:
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 (first line is the innermost frame)
			var id, fn uint64
			seen := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seen:
					seen = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function: id = 1, name = 2 (string table index)
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if i := funcName[locFunc[s.leaf]]; int(i) < len(strs) && i > 0 {
			name = strs[i]
		}
		flat[name] += s.value
	}
	return flat, nil
}

// fields walks one protobuf message, calling visit with each field's number
// and either its varint value (b nil) or its length-delimited bytes.
func fields(msg []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("pprof: bad varint in field %d", num)
			}
			msg = msg[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("pprof: bad length in field %d", num)
			}
			if err := visit(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("pprof: short fixed64 in field %d", num)
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("pprof: short fixed32 in field %d", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: wire type %d in field %d", wire, num)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7F) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func varints(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}
