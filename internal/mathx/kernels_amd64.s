#include "textflag.h"

// Every vector lane performs one of the Go loop's multiplies or adds, in the
// Go loop's order, so each result keeps its bits. Loads are unaligned
// (MOVUPD): a packed multiply or add takes register operands only. Nothing
// here changes MXCSR; Go runs with round-to-nearest and no flush-to-zero.

// func scoreKeysKernel(dst []float32, q, keys []float64, scale float32)
//
// One pass scores keys j (k0, R8) and j+1 (k1, R9) against q:
// X0 = (s0,s1) and X1 = (s2,s3) accumulate k0, X2 and X3 accumulate k1.
// An odd last key is scored as both keys of its pass and stored once.
TEXT ·scoreKeysKernel(SB), NOSPLIT, $0-76
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  q_base+24(FP), SI
	MOVQ  q_len+32(FP), DX
	MOVQ  keys_base+48(FP), R8
	MOVSS scale+72(FP), X8
	MOVQ  DX, BX
	SHLQ  $3, BX      // BX = bytes per key
	MOVQ  DX, R10
	ANDQ  $-4, R10    // R10 = elements the 4-wide loop covers

pair:
	TESTQ CX, CX
	JEQ   done
	LEAQ  (R8)(BX*1), R9
	CMPQ  CX, $1
	JNE   start
	MOVQ  R8, R9

start:
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORQ  AX, AX
	CMPQ  AX, R10
	JGE   reduce

quad:
	MOVUPD (SI)(AX*8), X4   // (x0, x1)
	MOVUPD 16(SI)(AX*8), X5 // (x2, x3)
	MOVUPD (R8)(AX*8), X6
	MULPD  X4, X6
	ADDPD  X6, X0
	MOVUPD 16(R8)(AX*8), X7
	MULPD  X5, X7
	ADDPD  X7, X1
	MOVUPD (R9)(AX*8), X6
	MULPD  X4, X6
	ADDPD  X6, X2
	MOVUPD 16(R9)(AX*8), X7
	MULPD  X5, X7
	ADDPD  X7, X3
	ADDQ   $4, AX
	CMPQ   AX, R10
	JLT    quad

reduce:
	// s = ((s0 + s1) + s2) + s3 in X0, t likewise in X2.
	MOVAPD   X0, X4
	UNPCKHPD X4, X4
	ADDSD    X4, X0
	ADDSD    X1, X0
	UNPCKHPD X1, X1
	ADDSD    X1, X0
	MOVAPD   X2, X4
	UNPCKHPD X4, X4
	ADDSD    X4, X2
	ADDSD    X3, X2
	UNPCKHPD X3, X3
	ADDSD    X3, X2

tail:
	CMPQ  AX, DX
	JGE   store
	MOVSD (SI)(AX*8), X4
	MOVSD (R8)(AX*8), X5
	MULSD X4, X5
	ADDSD X5, X0
	MOVSD (R9)(AX*8), X6
	MULSD X4, X6
	ADDSD X6, X2
	INCQ  AX
	JMP   tail

store:
	// dst[j] = float32(s) * scale.
	CVTSD2SS X0, X0
	MULSS    X8, X0
	MOVSS    X0, (DI)
	CMPQ     CX, $1
	JEQ      done
	CVTSD2SS X2, X2
	MULSS    X8, X2
	MOVSS    X2, 4(DI)
	ADDQ     $8, DI
	LEAQ     (R9)(BX*1), R8
	SUBQ     $2, CX
	JMP      pair

done:
	RET

// func widenKernel(dst []float64, src []float32)
TEXT ·widenKernel(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ AX, AX
	CMPQ AX, DX
	JGE  widentail

widenquad:
	CVTPS2PD (SI)(AX*4), X0
	CVTPS2PD 8(SI)(AX*4), X1
	MOVUPD   X0, (DI)(AX*8)
	MOVUPD   X1, 16(DI)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, DX
	JLT      widenquad

widentail:
	CMPQ     AX, CX
	JGE      widendone
	CVTSS2SD (SI)(AX*4), X0
	MOVSD    X0, (DI)(AX*8)
	INCQ     AX
	JMP      widentail

widendone:
	RET
