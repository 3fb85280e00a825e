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

// func expRowKernel(dst, src []float32, maxv float32, sum float64) (n int, s float64)
//
// AX indexes the pass's first element and DX counts the elements left. A
// pass loads two elements, or one into lane 0 when one is left, and runs
// expFast on both lanes: X0 = x, X1 = kd, X4 = s, X2 = r, then e. Lane 1 of
// a one-element pass computes a value nothing stores. The table index of
// each lane is the low byte of ki (PEXTRW). X7-X13 hold expFast's constants,
// X14 = (maxv, maxv) and X6 the sum; R10 points at expTable and R11 at
// expKernelConsts.
TEXT ·expRowKernel(SB), NOSPLIT, $0-80
	MOVQ     dst_base+0(FP), DI
	MOVQ     src_base+24(FP), SI
	MOVQ     src_len+32(FP), CX
	MOVSS    maxv+48(FP), X14
	UNPCKLPS X14, X14
	MOVSD    sum+56(FP), X6
	LEAQ     ·expTable(SB), R10
	LEAQ     ·expKernelConsts(SB), R11
	MOVUPD   0(R11), X13        // expInvLn2N
	MOVUPD   16(R11), X12       // expShift
	MOVUPD   32(R11), X11       // expLn2HiN
	MOVUPD   48(R11), X10       // expLn2LoN
	MOVUPD   64(R11), X9        // 1.0/6
	MOVUPD   80(R11), X8        // 0.5
	MOVUPD   96(R11), X7        // 1
	XORQ     AX, AX

exppass:
	MOVQ  CX, DX
	SUBQ  AX, DX
	JLE   expdone
	CMPQ  DX, $1
	JEQ   expone
	MOVQ  (SI)(AX*4), X0
	JMP   expcalc

expone:
	MOVSS (SI)(AX*4), X0

expcalc:
	SUBPS    X14, X0            // v - maxv, in float32
	CVTPS2PD X0, X0             // x
	MOVAPD   X0, X1
	MULPD    X13, X1
	ADDPD    X12, X1            // kd = float64(x*expInvLn2N) + expShift; ki is its bits
	PEXTRW   $0, X1, BX
	PEXTRW   $4, X1, R8
	ANDL     $255, BX
	ANDL     $255, R8
	MOVSD    (R10)(BX*8), X3
	MOVHPD   (R10)(R8*8), X3    // expTable[ki%expN]
	MOVAPD   X1, X4
	PSLLQ    $44, X4
	PADDQ    X3, X4             // s
	SUBPD    X12, X1            // kd -= expShift
	MOVAPD   X1, X3
	MULPD    X11, X3
	MOVAPD   X0, X2
	SUBPD    X3, X2             // x - float64(kd*expLn2HiN)
	MULPD    X10, X1
	SUBPD    X1, X2             // r = ... - float64(kd*expLn2LoN)
	MOVAPD   X2, X3
	MULPD    X2, X3             // r2 = r*r
	MOVAPD   X2, X5
	MULPD    X9, X5             // r*(1.0/6)
	ADDPD    X8, X5             // 0.5 + ...
	MULPD    X3, X5             // r2*(...)
	ADDPD    X7, X2             // 1 + r
	ADDPD    X5, X2             // 1 + r + float64(r2*(...))
	MULPD    X4, X2             // e = s * (...)

	// A lane takes the fast path if expFastMin <= x <= expFastMax or x is
	// ±0, which NaN fails, and !nearMidpoint(e): the masked low dword of
	// e's bits, less the bias, is above 2*expWindow. BX gets the lanes'
	// verdicts in bits 0 and 2.
	MOVAPD   X0, X3
	MOVUPD   128(R11), X1
	CMPPD    X1, X3, $2         // x <= expFastMax
	XORPD    X1, X1
	CMPPD    X0, X1, $0         // x == 0
	ORPD     X1, X3
	MOVUPD   112(R11), X4
	CMPPD    X0, X4, $2         // expFastMin <= x
	ANDPD    X4, X3
	MOVAPD   X2, X5
	MOVUPD   144(R11), X1
	PSUBQ    X1, X5
	MOVUPD   160(R11), X1
	PAND     X1, X5
	MOVUPD   176(R11), X1
	PCMPGTL  X1, X5
	PAND     X5, X3
	MOVMSKPS X3, BX
	ANDL     $5, BX
	CMPQ     DX, $1
	JNE      expstore
	ANDL     $1, BX             // one element: lane 1 is not in the row

expstore:
	CMPL     BX, $5
	JNE      explane0
	CVTPD2PS X2, X3
	MOVQ     X3, (DI)(AX*4)
	ADDSD    X2, X6
	UNPCKHPD X2, X2
	ADDSD    X2, X6
	ADDQ     $2, AX
	JMP      exppass

explane0:
	// Lane 1 falls back or is not in the row: store lane 0 if it takes the
	// fast path, then stop before the first element that does not.
	TESTL    $1, BX
	JEQ      expdone
	CVTSD2SS X2, X3
	MOVSS    X3, (DI)(AX*4)
	ADDSD    X2, X6
	INCQ     AX

expdone:
	MOVQ  AX, n+64(FP)
	MOVSD X6, s+72(FP)
	RET
