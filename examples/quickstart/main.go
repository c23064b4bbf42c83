// Quickstart: build the smallest useful prototype (1x1x2), load a
// bare-metal RISC-V program over the host DMA path, boot the cores and
// watch the console UART — the whole SMAPPIC loop in one file.
package main

import (
	"fmt"
	"log"

	"smappic"
	"smappic/internal/rvasm"
)

func main() {
	// One FPGA, one node, two Ariane tiles (the paper's GNG-demo shape).
	cfg := smappic.DefaultConfig(1, 1, 2)
	proto, err := smappic.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A bare-metal program: hart 0 computes 10! and prints it in decimal
	// over the UART; hart 1 just parks.
	prog := rvasm.MustAssemble(smappic.ResetPC, `
		csrr t0, mhartid
		bnez t0, halt

		# factorial(10)
		li   a0, 1
		li   t1, 10
	fact:	mul  a0, a0, t1
		addi t1, t1, -1
		bnez t1, fact

		# print "10! = " then the number
		la   s0, label
		call puts
		mv   t3, a0
		la   s2, digend
		sb   zero, 0(s2)
	conv:	addi s2, s2, -1
		li   t4, 10
		remu t5, t3, t4
		addi t5, t5, 48      # '0'
		sb   t5, 0(s2)
		divu t3, t3, t4
		bnez t3, conv
		mv   s0, s2
		call puts
		la   s0, nl
		call puts
	halt:	li a0, 0
		ebreak

	# puts: print NUL-terminated string at s0
	puts:	li   s1, 0xF000001000
	ploop:	lbu  t1, 0(s0)
		beqz t1, pdone
		sd   t1, 0(s1)
	pwait:	ld   t2, 40(s1)
		andi t2, t2, 0x20
		beqz t2, pwait
		addi s0, s0, 1
		j    ploop
	pdone:	ret

	label:	.asciz "10! = "
	nl:	.asciz "\n"
	digits:	.space 20
	digend:	.space 4
	`)

	host := proto.Host()
	host.LoadProgram(0, prog)
	proto.Start()
	proto.Run()

	fmt.Printf("console: %s", host.Console(0))
	fmt.Printf("simulated %d cycles = %.3f ms at %d MHz\n",
		proto.Now(), proto.Seconds(proto.Now())*1e3, smappic.ClockMHz)
	fmt.Printf("memory traffic: %d DRAM reads, %d DRAM writes\n",
		proto.Stats.Get("node0.dram.reads"), proto.Stats.Get("node0.dram.writes"))
}
