//go:build amd64 && !purego

#include "textflag.h"

// AES8 applies op with the operand k to the eight blocks in flight.
#define AES8(op, k) \
	op k, X0; op k, X1; op k, X2; op k, X3; \
	op k, X4; op k, X5; op k, X6; op k, X7

// ROUND8 runs a middle round of the eight blocks under the round key at
// off(AX); ROUND1 runs it on the one block of the tail.
#define ROUND8(off) MOVUPS off(AX), X8; AES8(AESENC, X8)
#define ROUND1(off) MOVUPS off(AX), X8; AESENC X8, X0

// func encryptBlocksAsm(rk *[176]byte, dst, src []byte)
TEXT ·encryptBlocksAsm(SB), NOSPLIT, $0-56
	MOVQ rk+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $4, CX

	// The first and last round keys stay in registers; each middle one
	// is loaded as its round starts.
	MOVUPS (AX), X9
	MOVUPS 160(AX), X10

loop8:
	CMPQ CX, $8
	JB   tail
	MOVUPS 0(SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS 64(SI), X4
	MOVUPS 80(SI), X5
	MOVUPS 96(SI), X6
	MOVUPS 112(SI), X7
	AES8(PXOR, X9)
	ROUND8(16)
	ROUND8(32)
	ROUND8(48)
	ROUND8(64)
	ROUND8(80)
	ROUND8(96)
	ROUND8(112)
	ROUND8(128)
	ROUND8(144)
	AES8(AESENCLAST, X10)
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $8, CX
	JMP  loop8

tail:
	TESTQ CX, CX
	JZ    done
	MOVUPS (SI), X0
	PXOR   X9, X0
	ROUND1(16)
	ROUND1(32)
	ROUND1(48)
	ROUND1(64)
	ROUND1(80)
	ROUND1(96)
	ROUND1(112)
	ROUND1(128)
	ROUND1(144)
	AESENCLAST X10, X0
	MOVUPS     X0, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JMP  tail

done:
	RET

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
