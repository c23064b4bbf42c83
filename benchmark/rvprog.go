package main

import (
	"encoding/binary"
	"fmt"

	"smappic/internal/core"
	"smappic/internal/rvasm"
)

// The rv64-fullsys program runs on 2x1x4: two nodes of four harts each.
const (
	rvHartsPerNode = 4
	rvHarts        = 2 * rvHartsPerNode
	rvLineBytes    = 64
	// Both arrays sit 16 MiB into their node's DRAM, clear of the code.
	rvArrayOffset = 16 << 20
)

// rvImage is the generated input of rv64-fullsys: the program, the two
// seed-filled arrays, and the console text a correct run prints.
type rvImage struct {
	segments []*rvasm.Program // program at the reset PC, then the arrays
	console  string
}

// rvSource is the bare-metal program. Every hart reads one dword per cache
// line from its slice of the node-0 array and then of the node-1 array (so
// each hart streams through local and remote DRAM), adds its partial sum
// into a shared word with amoadd, and checks in; hart 0 waits for all of
// them and prints the total as 16 hex digits over the console UART.
const rvSource = `
	csrr  t0, mhartid
	li    s0, %#x            # node-0 array
	li    s1, %#x            # node-1 array
	li    s2, %d             # lines per hart per array
	li    t1, %d             # slice bytes
	mul   t1, t1, t0
	add   s0, s0, t1
	add   s1, s1, t1
	li    a0, 0
	mv    t2, s2
loop0:	ld    t3, 0(s0)
	add   a0, a0, t3
	addi  s0, s0, 64
	addi  t2, t2, -1
	bnez  t2, loop0
	mv    t2, s2
loop1:	ld    t3, 0(s1)
	add   a0, a0, t3
	addi  s1, s1, 64
	addi  t2, t2, -1
	bnez  t2, loop1
	la    t4, total
	amoadd.d zero, a0, (t4)
	la    t5, arrived
	li    t6, 1
	amoadd.d zero, t6, (t5)
	bnez  t0, halt
	li    t1, %d             # harts
wait:	ld    t6, 0(t5)
	bne   t6, t1, wait
	ld    a1, 0(t4)
	li    s1, 0xF000001000   # console UART
	li    s3, 16
	li    s4, 60
digit:	srl   t1, a1, s4
	andi  t1, t1, 15
	addi  t2, t1, -10
	bltz  t2, emit
	addi  t1, t1, 39         # 'a' - '0' - 10
emit:	addi  t1, t1, 48
	call  putc
	addi  s4, s4, -4
	addi  s3, s3, -1
	bnez  s3, digit
	li    t1, 10
	call  putc
halt:	li    a0, 0
	ebreak
putc:	sd    t1, 0(s1)
busy:	ld    t2, 40(s1)
	andi  t2, t2, 0x20
	beqz  t2, busy
	ret
	.align 6
total:	.dword 0
	.align 6
arrived: .dword 0
`

// newRVImage assembles the program and fills the arrays from the seed.
func newRVImage(seed uint64, lines int) (*rvImage, error) {
	arr0 := core.DRAMBase + rvArrayOffset
	arr1 := core.DRAMBase + core.NodeDRAMSize + rvArrayOffset
	slice := lines * rvLineBytes
	prog, err := rvasm.Assemble(core.ResetPC, fmt.Sprintf(rvSource, arr0, arr1, lines, slice, rvHarts))
	if err != nil {
		return nil, err
	}
	img := &rvImage{segments: []*rvasm.Program{prog}}
	state := seed*0x9E3779B97F4A7C15 + 0x5EED
	var total uint64
	for _, base := range []uint64{arr0, arr1} {
		data := make([]byte, rvHarts*slice)
		for off := 0; off < len(data); off += 8 {
			// splitmix64
			state += 0x9E3779B97F4A7C15
			z := state
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			z ^= z >> 31
			binary.LittleEndian.PutUint64(data[off:], z)
			if off%rvLineBytes == 0 {
				total += z // the program reads the first dword of each line
			}
		}
		img.segments = append(img.segments, &rvasm.Program{Base: base, Bytes: data})
	}
	img.console = fmt.Sprintf("%016x\n", total)
	return img, nil
}
