	# The program the committed cursors were taken on (smappic-run's built-in
	# hello, passed with -prog so the test loads the same bytes).
	csrr t0, mhartid
	bnez t0, halt
	la   s0, msg
	li   s1, 0xF000001000
putc:	lbu  t1, 0(s0)
	beqz t1, halt
	sd   t1, 0(s1)
wait:	ld   t2, 40(s1)
	andi t2, t2, 0x20
	beqz t2, wait
	addi s0, s0, 1
	j    putc
halt:	li a0, 0
	ebreak
msg:	.asciz "Hello from SMAPPIC!\n"
