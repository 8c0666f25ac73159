#include "go_asm.h"
#include "textflag.h"

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func scanSet(set *uint64, ln uint64, ways int) uint64
//
// Ways are compared as tag<<1 against ln<<1, which drops the prefetched
// bit. VALIGNQ shifts the set up one way in registers, and a masked store
// writes it back over ways 1..w for a match at way w, or over ways
// 1..ways-1 on a miss: every store stays inside the set. A 16-way set is
// two registers, both loaded before either store.
TEXT ·scanSet(SB), NOSPLIT, $0-32
	MOVQ set+0(FP), DI
	MOVQ ln+8(FP), AX
	MOVQ ways+16(FP), DX
	SHLQ $1, AX
	VPBROADCASTQ AX, Z2
	VMOVDQU64 (DI), Z0
	VPSLLQ $1, Z0, Z3
	VPCMPEQQ Z2, Z3, K1
	VALIGNQ $7, Z0, Z0, Z5
	CMPQ DX, $16
	JEQ sixteen
	KMOVB K1, BX

	// Store mask: ways 1..w, or 1..ways-1 on a miss (BLSMSK of 0 is all
	// ones, and the mask registers keep only the set's bits).
	BLSMSKL BX, CX
	ANDL $-2, CX
	KMOVB CX, K4

	// The found tag, read before the store moves it; 0 on a miss.
	TZCNTL BX, DX
	ANDL $7, DX
	MOVQ (DI)(DX*8), AX
	TESTL BX, BX
	CMOVQEQ BX, AX

	VMOVDQU64 Z5, K4, (DI)
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

sixteen:
	VMOVDQU64 64(DI), Z1
	VPSLLQ $1, Z1, Z4
	VPCMPEQQ Z2, Z4, K2
	VALIGNQ $7, Z0, Z1, Z6
	KUNPCKBW K1, K2, K3
	KMOVW K3, BX

	BLSMSKL BX, CX
	ANDL $-2, CX
	KMOVW CX, K4
	SHRL $8, CX
	KMOVW CX, K5

	TZCNTL BX, DX
	ANDL $15, DX
	MOVQ (DI)(DX*8), AX
	TESTL BX, BX
	CMOVQEQ BX, AX

	VMOVDQU64 Z5, K4, (DI)
	VMOVDQU64 Z6, K5, 64(DI)
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func scanStreams(t *streamTable, ln int64) (near, same, conf uint32, victim int)
//
// Slots 0..7 are in the even Z registers, 8..15 in the odd ones; each mask
// pair is joined into one 16-bit mask, slot i at bit i.
TEXT ·scanStreams(SB), NOSPLIT, $0-40
	MOVQ t+0(FP), DI
	VPBROADCASTQ ln+8(FP), Z0
	MOVQ $const_streamWindow, AX
	VPBROADCASTQ AX, Z1
	MOVQ $(2*const_streamWindow), AX
	VPBROADCASTQ AX, Z2

	// delta = ln - lastLine; live = lastUse != 0.
	VMOVDQU64 streamTable_lastLine(DI), Z4
	VMOVDQU64 (streamTable_lastLine+64)(DI), Z5
	VMOVDQU64 streamTable_lastUse(DI), Z6
	VMOVDQU64 (streamTable_lastUse+64)(DI), Z7
	VPSUBQ Z4, Z0, Z4
	VPSUBQ Z5, Z0, Z5
	VPTESTMQ Z6, Z6, K1
	VPTESTMQ Z7, Z7, K2

	// near = live and |delta| <= window, as one unsigned compare.
	VPADDQ Z1, Z4, Z8
	VPADDQ Z1, Z5, Z9
	VPCMPUQ $2, Z2, Z8, K1, K1
	VPCMPUQ $2, Z2, Z9, K2, K2

	// same = near and delta == 0.
	VPTESTNMQ Z4, Z4, K1, K3
	VPTESTNMQ Z5, Z5, K2, K4

	// conf = near and delta == stride and confid >= confirmThreshold.
	VPCMPEQQ streamTable_stride(DI), Z4, K1, K5
	VPCMPEQQ (streamTable_stride+64)(DI), Z5, K2, K6
	KUNPCKBW K5, K6, K5
	MOVL $const_confirmThreshold, AX
	VPBROADCASTD AX, Z3
	VPCMPD $2, streamTable_confid(DI), Z3, K5, K5

	KUNPCKBW K1, K2, K1
	KUNPCKBW K3, K4, K3
	KMOVW K1, AX
	MOVL AX, near+16(FP)
	KMOVW K3, AX
	MOVL AX, same+20(FP)
	KMOVW K5, AX
	MOVL AX, conf+24(FP)

	// The victim matters only when no slot is near: the first slot with
	// the least lastUse.
	XORL AX, AX
	KORTESTW K1, K1
	JNZ done
	VPMINUQ Z7, Z6, Z8
	VEXTRACTI64X4 $1, Z8, Y9
	VPMINUQ Y9, Y8, Y8
	VEXTRACTI128 $1, Y8, X9
	VPMINUQ X9, X8, X8
	VPSHUFD $0x4e, X8, X9
	VPMINUQ X9, X8, X8
	VPBROADCASTQ X8, Z8
	VPCMPEQQ Z8, Z6, K1
	VPCMPEQQ Z8, Z7, K2
	KUNPCKBW K1, K2, K1
	KMOVW K1, AX
	TZCNTL AX, AX

done:
	MOVQ AX, victim+32(FP)
	VZEROUPPER
	RET
