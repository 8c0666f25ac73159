#include "textflag.h"

// func Kernel(x uint64) uint64
TEXT ·Kernel(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), AX
	ADDQ $1, AX // CALL in a comment is no call
	JMP done
done:
	MOVQ AX, ret+8(FP)
	RET

// func Calls(x uint64) uint64
TEXT ·Calls(SB), $8-16
	MOVQ x+0(FP), AX
	MOVQ AX, 0(SP)
	CALL ·grow(SB)
	RET

// func TailCalls(x uint64) uint64
TEXT ·TailCalls(SB), NOSPLIT, $0-16
	JMP ·Kernel(SB)

// func Raw(x uint64) uint64
TEXT ·Raw(SB), NOSPLIT, $0-16
	RET
