#include "textflag.h"

// The tag-match kernels (see tagmatch.go). Rule: no kernel runs a
// legacy-SSE instruction. Every vector instruction here is VEX-encoded,
// and a tag reaches a vector register with VMOVD, never MOVQ or MOVD:
// once a 256-bit instruction has dirtied the upper halves of the YMM
// registers, a legacy-SSE instruction pays a state transition on every
// execution until the next VZEROUPPER, and inside a loop kernel that
// made a prototype several times slower without changing its results.
// Each kernel ends with VZEROUPPER before it returns to Go.

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
	VMOVD        AX, X0
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
	VMOVD        AX, X0
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

// The run kernels probe the n <= rangeChunk lines tagged tag0, tag0+1,
// ... of a private level whose rows are 8 (matchRun8) or 16 (matchRun16)
// ways: line i's row starts at word ((tag0+i-1)&setMask)*ways of tags.
// Y0 holds line i's tag in every lane (one broadcast, then VPADDD of the
// ones in Y3 per line); AX holds it too, for the set index. out[i] gets
// the lowest way holding the tag (BSF of the match mask), or -1 when the
// mask is empty. A way is at most 31, so the misses are exactly the
// bytes of out with the sign bit set: one VPMOVMSKB of out's 32 bytes,
// cut to the run's n bits, is the miss mask. Registers: SI tags, DI
// out, CX i, R8 setMask, R9 n, R11 the constant -1.

// func matchRun8(tags *uint32, setMask, tag0 uint32, n int, out *[rangeChunk]int8) (miss uint32)
TEXT ·matchRun8(SB), NOSPLIT, $0-36
	MOVQ tags+0(FP), SI
	MOVL setMask+8(FP), R8
	MOVL tag0+12(FP), AX
	MOVQ n+16(FP), R9
	MOVQ out+24(FP), DI
	XORL CX, CX
	MOVL $-1, R11
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	MOVL         $1, DX
	VMOVD        DX, X3
	VPBROADCASTD X3, Y3
	TESTQ R9, R9
	JLE   done8

loop8:
	LEAL         -1(AX), DX
	ANDL         R8, DX
	SHLL         $5, DX         // the row's byte offset: set * 8 ways * 4 B
	VPCMPEQD     (SI)(DX*1), Y0, Y1
	VPADDD       Y3, Y0, Y0     // the next line's tag
	VMOVMSKPS    Y1, BX
	BSFL         BX, BX         // ZF: no way matched
	CMOVLEQ      R11, BX
	MOVB         BX, (DI)(CX*1)
	INCL         AX
	INCQ         CX
	CMPQ         CX, R9
	JLT          loop8

done8:
	VMOVDQU   (DI), Y1         // miss: the sign bits of out[0:n]
	VPMOVMSKB Y1, R10
	VZEROUPPER
	MOVQ R9, CX
	MOVQ $1, R12
	SHLQ CX, R12
	DECQ R12
	ANDL R12, R10
	MOVL R10, miss+32(FP)
	RET

// func matchRun16(tags *uint32, setMask, tag0 uint32, n int, out *[rangeChunk]int8) (miss uint32)
TEXT ·matchRun16(SB), NOSPLIT, $0-36
	MOVQ tags+0(FP), SI
	MOVL setMask+8(FP), R8
	MOVL tag0+12(FP), AX
	MOVQ n+16(FP), R9
	MOVQ out+24(FP), DI
	XORL CX, CX
	MOVL $-1, R11
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	MOVL         $1, DX
	VMOVD        DX, X3
	VPBROADCASTD X3, Y3
	TESTQ R9, R9
	JLE   done16

loop16:
	LEAL         -1(AX), DX
	ANDL         R8, DX
	SHLL         $6, DX         // the row's byte offset: set * 16 ways * 4 B
	VPCMPEQD     (SI)(DX*1), Y0, Y1
	VPCMPEQD     32(SI)(DX*1), Y0, Y2
	VPADDD       Y3, Y0, Y0     // the next line's tag
	VMOVMSKPS    Y1, BX
	VMOVMSKPS    Y2, R13
	SHLL         $8, R13
	ORL          R13, BX
	BSFL         BX, BX         // ZF: no way matched
	CMOVLEQ      R11, BX
	MOVB         BX, (DI)(CX*1)
	INCL         AX
	INCQ         CX
	CMPQ         CX, R9
	JLT          loop16

done16:
	VMOVDQU   (DI), Y1         // miss: the sign bits of out[0:n]
	VPMOVMSKB Y1, R10
	VZEROUPPER
	MOVQ R9, CX
	MOVQ $1, R12
	SHLQ CX, R12
	DECQ R12
	ANDL R12, R10
	MOVL R10, miss+32(FP)
	RET
