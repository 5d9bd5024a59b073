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

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func match8(row *[8]uint32, tag uint32) uint32
TEXT ·match8(SB), NOSPLIT, $0-20
	MOVQ         row+0(FP), SI
	MOVL         tag+8(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0
	VPCMPEQD     (SI), Y0, Y1
	VMOVMSKPS    Y1, AX
	VZEROUPPER
	MOVL         AX, ret+16(FP)
	RET

// func match16(row *[16]uint32, tag uint32) uint32
TEXT ·match16(SB), NOSPLIT, $0-20
	MOVQ         row+0(FP), SI
	MOVL         tag+8(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0
	VPCMPEQD     (SI), Y0, Y1
	VPCMPEQD     32(SI), Y0, Y2
	VMOVMSKPS    Y1, AX
	VMOVMSKPS    Y2, BX
	SHLL         $8, BX
	ORL          BX, AX
	VZEROUPPER
	MOVL         AX, ret+16(FP)
	RET
