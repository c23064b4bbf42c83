package kernel

import (
	"fmt"
	"strings"

	"smappic/internal/core"
)

// DeviceTree renders the flattened-device-tree source the boot flow hands
// to the operating system (paper §4.1: "The software reads NUMA parameters
// from the device tree during the boot process"). It describes the harts,
// per-node memory regions with their NUMA node ids, the distance map
// derived from the interconnect (10 local / 25 remote, the convention for
// a 2.5x latency ratio), and the chipset devices.
func (k *Kernel) DeviceTree() string {
	cfg := k.pr.Cfg
	var b strings.Builder
	fmt.Fprintf(&b, "/dts-v1/;\n/ {\n")
	fmt.Fprintf(&b, "\tcompatible = \"smappic,%s\";\n", cfg.Shape())
	fmt.Fprintf(&b, "\t#address-cells = <2>;\n\t#size-cells = <2>;\n\n")

	// CPUs.
	fmt.Fprintf(&b, "\tcpus {\n\t\ttimebase-frequency = <%d>;\n", core.ClockMHz*1_000_000)
	for hart := 0; hart < cfg.TotalTiles(); hart++ {
		node := hart / cfg.TilesPerNode
		fmt.Fprintf(&b, "\t\tcpu@%d {\n", hart)
		fmt.Fprintf(&b, "\t\t\tdevice_type = \"cpu\";\n")
		fmt.Fprintf(&b, "\t\t\tcompatible = \"openhwgroup,%s\", \"riscv\";\n", cfg.Core)
		fmt.Fprintf(&b, "\t\t\treg = <%d>;\n", hart)
		fmt.Fprintf(&b, "\t\t\triscv,isa = \"rv64ima\";\n")
		fmt.Fprintf(&b, "\t\t\tnuma-node-id = <%d>;\n", node)
		fmt.Fprintf(&b, "\t\t};\n")
	}
	fmt.Fprintf(&b, "\t};\n\n")

	// Memory regions, one per node: the bottom half of its DRAM region (the
	// top half is left unused).
	for n := 0; n < cfg.TotalNodes(); n++ {
		base := k.pr.Map.NodeDRAMBase(n)
		size := k.pr.Map.MainMemorySize()
		fmt.Fprintf(&b, "\tmemory@%x {\n", base)
		fmt.Fprintf(&b, "\t\tdevice_type = \"memory\";\n")
		fmt.Fprintf(&b, "\t\treg = <0x%x 0x%x 0x%x 0x%x>;\n",
			base>>32, base&0xFFFFFFFF, size>>32, size&0xFFFFFFFF)
		fmt.Fprintf(&b, "\t\tnuma-node-id = <%d>;\n", n)
		fmt.Fprintf(&b, "\t};\n")
	}

	// NUMA distance map.
	if cfg.TotalNodes() > 1 {
		fmt.Fprintf(&b, "\n\tdistance-map {\n\t\tcompatible = \"numa-distance-map-v1\";\n")
		fmt.Fprintf(&b, "\t\tdistance-matrix = <")
		for i := 0; i < cfg.TotalNodes(); i++ {
			for j := 0; j < cfg.TotalNodes(); j++ {
				d := 10
				if i != j {
					d = 25 // 2.5x the local latency, as measured in Fig. 7
				}
				fmt.Fprintf(&b, "%d %d %d ", i, j, d)
			}
		}
		fmt.Fprintf(&b, ">;\n\t};\n")
	}

	// Chipset devices (node 0's window; each node mirrors the layout).
	fmt.Fprintf(&b, "\n\tsoc {\n")
	devs := []struct {
		name string
		comp string
		off  uint64
	}{
		{"uart", "ns16550a", core.DevUART0},
		{"uart", "ns16550a", core.DevUART1},
		{"clint", "riscv,clint0", core.DevCLINT},
	}
	for _, d := range devs {
		addr := core.DevBase + d.off
		fmt.Fprintf(&b, "\t\t%s@%x {\n\t\t\tcompatible = \"%s\";\n\t\t\treg = <0x%x 0x%x>;\n\t\t};\n",
			d.name, addr, d.comp, addr>>32, addr&0xFFFFFFFF)
	}
	fmt.Fprintf(&b, "\t};\n};\n")
	return b.String()
}
