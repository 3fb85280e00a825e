#include "textflag.h"

// Every vector lane performs one of the Go loop's multiplies or adds, in the
// Go loop's order, so each result keeps its bits. Loads are unaligned
// (MOVUPD): a packed multiply or add takes register operands only. Nothing
// here changes MXCSR; Go runs with round-to-nearest and no flush-to-zero.

// func scoreKeysKernel(dst []float32, q, keys []float64, scale float32) float32
//
// One pass scores keys j (k0, R8) and j+1 (k1, R9) against q:
// X0 = (s0,s1) and X1 = (s2,s3) accumulate k0, X2 and X3 accumulate k1.
// An odd last key is scored as both keys of its pass and stored once.
// X9 is the running maximum, from -Inf: MAXSS X9, X0 leaves X0 if X0 > X9
// and X9 otherwise (a NaN in X0, or a tie), and the result moves to X9.
TEXT ·scoreKeysKernel(SB), NOSPLIT, $0-84
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  q_base+24(FP), SI
	MOVQ  q_len+32(FP), DX
	MOVQ  keys_base+48(FP), R8
	MOVSS scale+72(FP), X8
	MOVQ  $0xff800000, BX
	MOVQ  BX, X9      // -Inf
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
	// dst[j] = float32(s) * scale, then max = dst[j] > max ? dst[j] : max.
	CVTSD2SS X0, X0
	MULSS    X8, X0
	MOVSS    X0, (DI)
	MAXSS    X9, X0
	MOVAPS   X0, X9
	CMPQ     CX, $1
	JEQ      done
	CVTSD2SS X2, X2
	MULSS    X8, X2
	MOVSS    X2, 4(DI)
	MAXSS    X9, X2
	MOVAPS   X2, X9
	ADDQ     $8, DI
	LEAQ     (R9)(BX*1), R8
	SUBQ     $2, CX
	JMP      pair

done:
	MOVSS X9, ret+80(FP)
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

// The exp-row kernel takes two elements per pass, or one into lane 0 when
// one is left, through expFast's operations in its order (EXPPASS), and
// stores the lanes that take the fast path up to the first that does not.
// Lane 1 of a one-element pass computes a value nothing stores. R10 points
// at expTable, R11 at expKernelConsts; X7, X8 and X10-X13 hold expFast's
// constants 1, 0.5, expLn2LoN, expLn2HiN, expShift and expInvLn2N (1.0/6
// is loaded each pass), and X14 = (maxv, maxv).
#define EXPSETUP \
	LEAQ     ·expTable(SB), R10; \
	LEAQ     ·expKernelConsts(SB), R11; \
	MOVUPD   0(R11), X13; \
	MOVUPD   16(R11), X12; \
	MOVUPD   32(R11), X11; \
	MOVUPD   48(R11), X10; \
	MOVUPD   80(R11), X8; \
	MOVUPD   96(R11), X7

// EXPPASS runs expFast on both lanes of a pass, from the elements in X0's
// low float32 lanes: it leaves x in X0 and e in X2, with X1 = kd, X4 = s
// and X2 = r on the way; the table index of each lane is the low byte of
// ki (PEXTRW). It then leaves the lanes' verdicts in bits 0 and 2 of BX: a
// lane takes the fast path if expFastMin <= x <= expFastMax, which NaN
// fails, and !nearMidpoint(e): the masked low dword of e's bits, less the
// bias, is above 2*expWindow. It clobbers X1, X3-X5 and R8.
#define EXPPASS \
	SUBPS    X14, X0;         /* v - maxv, in float32 */ \
	CVTPS2PD X0, X0;          /* x */ \
	MOVAPD   X0, X1; \
	MULPD    X13, X1; \
	ADDPD    X12, X1;         /* kd = float64(x*expInvLn2N) + expShift; ki is its bits */ \
	PEXTRW   $0, X1, BX; \
	PEXTRW   $4, X1, R8; \
	ANDL     $255, BX; \
	ANDL     $255, R8; \
	MOVSD    (R10)(BX*8), X3; \
	MOVHPD   (R10)(R8*8), X3; /* expTable[ki%expN] */ \
	MOVAPD   X1, X4; \
	PSLLQ    $44, X4; \
	PADDQ    X3, X4;          /* s */ \
	SUBPD    X12, X1;         /* kd -= expShift */ \
	MOVAPD   X1, X3; \
	MULPD    X11, X3; \
	MOVAPD   X0, X2; \
	SUBPD    X3, X2;          /* x - float64(kd*expLn2HiN) */ \
	MULPD    X10, X1; \
	SUBPD    X1, X2;          /* r = ... - float64(kd*expLn2LoN) */ \
	MOVAPD   X2, X3; \
	MULPD    X2, X3;          /* r2 = r*r */ \
	MOVUPD   64(R11), X5; \
	MULPD    X2, X5;          /* r*(1.0/6) */ \
	ADDPD    X8, X5;          /* 0.5 + ... */ \
	MULPD    X3, X5;          /* r2*(...) */ \
	ADDPD    X7, X2;          /* 1 + r */ \
	ADDPD    X5, X2;          /* 1 + r + float64(r2*(...)) */ \
	MULPD    X4, X2;          /* e = s * (...) */ \
	MOVAPD   X0, X3; \
	MOVUPD   128(R11), X1; \
	CMPPD    X1, X3, $2;      /* x <= expFastMax */ \
	MOVUPD   112(R11), X4; \
	CMPPD    X0, X4, $2;      /* expFastMin <= x */ \
	ANDPD    X4, X3; \
	MOVAPD   X2, X5; \
	MOVUPD   144(R11), X1; \
	PSUBQ    X1, X5; \
	MOVUPD   160(R11), X1; \
	PAND     X1, X5; \
	MOVUPD   176(R11), X1; \
	PCMPGTL  X1, X5; \
	PAND     X5, X3; \
	MOVMSKPS X3, BX; \
	ANDL     $5, BX

// func expRowKernel(dst, src []float32, maxv float32, sum float64) (n int, s float64)
//
// AX indexes the pass's first element and DX counts the elements left; X6
// holds the sum.
TEXT ·expRowKernel(SB), NOSPLIT, $0-80
	MOVQ     dst_base+0(FP), DI
	MOVQ     src_base+24(FP), SI
	MOVQ     src_len+32(FP), CX
	MOVSS    maxv+48(FP), X14
	UNPCKLPS X14, X14
	MOVSD    sum+56(FP), X6
	EXPSETUP
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
	EXPPASS
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

// func expMassBoundKernel(src []float32, maxv float32, w []float64, flagged []int) (total float64, smin float32, n int, ok bool)
//
// AX indexes the pass's first score, R12 counts the flagged indices, R11
// points at massKernelConsts. X14 = maxv and X15 the running minimum in
// all four lanes, X13 = (s0, s1); X6-X12 hold p3, p4, p5, p6, ln2Lo, ln2Hi
// and log2e, and p2, 1, MassCut and massMin are loaded when used. A pass
// (MASSPASS) leaves x's range verdicts in bits 0-3 of BX, the flags in
// bits 0-3 of DX and the approximate masses in X1; MINPS X0, X15 keeps
// X15's lane when it is below the score (MINPS's rule, as minps).
#define MASSPASS \
	SUBPS    X14, X0;         /* x = s - maxv */ \
	MOVUPS   160(R11), X1; \
	CMPPS    X0, X1, $2;      /* massMin <= x */ \
	MOVAPS   X0, X3; \
	XORPS    X2, X2; \
	CMPPS    X2, X3, $2;      /* x <= 0 */ \
	ANDPS    X3, X1; \
	MOVMSKPS X1, BX; \
	MOVUPS   144(R11), X1; \
	CMPPS    X0, X1, $2;      /* MassCut <= x */ \
	MOVMSKPS X1, DX; \
	MOVAPS   X0, X1; \
	MULPS    X12, X1;         /* x*log2e */ \
	CVTPS2PL X1, X2;          /* n, rounded to nearest even */ \
	CVTPL2PS X2, X3;          /* float32(n) */ \
	MOVAPS   X3, X4; \
	MULPS    X11, X4; \
	SUBPS    X4, X0;          /* x - n*ln2Hi */ \
	MULPS    X10, X3; \
	SUBPS    X3, X0;          /* r = ... - n*ln2Lo */ \
	MOVAPS   X9, X1; \
	MULPS    X0, X1; \
	ADDPS    X8, X1;          /* p6*r + p5 */ \
	MULPS    X0, X1; \
	ADDPS    X7, X1;          /* ... + p4 */ \
	MULPS    X0, X1; \
	ADDPS    X6, X1;          /* ... + p3 */ \
	MULPS    X0, X1; \
	MOVUPS   112(R11), X4; \
	ADDPS    X4, X1;          /* ... + p2 */ \
	MULPS    X0, X1; \
	MOVUPS   128(R11), X4; \
	ADDPS    X4, X1;          /* ... + 1 */ \
	MULPS    X0, X1; \
	ADDPS    X4, X1;          /* ... + 1 */ \
	PSLLL    $23, X2; \
	PADDL    X2, X1           /* times 2^n */

// MASSFLAG stores index AX+i at flagged[R12] and keeps it if flag bit i of
// DX is set.
#define MASSFLAG(i) \
	LEAQ  i(AX), R8; \
	MOVQ  R8, (DI)(R12*8); \
	BTL   $i, DX; \
	ADCQ  $0, R12

TEXT ·expMassBoundKernel(SB), NOSPLIT, $0-105
	MOVQ     src_base+0(FP), SI
	MOVQ     src_len+8(FP), CX
	MOVSS    maxv+24(FP), X14
	SHUFPS   $0, X14, X14
	MOVQ     w_base+32(FP), R9
	MOVQ     flagged_base+56(FP), DI
	LEAQ     ·massKernelConsts(SB), R11
	MOVUPS   0(R11), X12
	MOVUPS   16(R11), X11
	MOVUPS   32(R11), X10
	MOVUPS   48(R11), X9
	MOVUPS   64(R11), X8
	MOVUPS   80(R11), X7
	MOVUPS   96(R11), X6
	MOVQ     $0x7f800000, BX
	MOVQ     BX, X15
	SHUFPS   $0, X15, X15     // +Inf
	XORPD    X13, X13
	XORQ     R12, R12
	XORQ     AX, AX
	MOVQ     CX, R10
	ANDQ     $-4, R10         // scores the four-lane passes cover

masspass:
	CMPQ     AX, R10
	JGE      masstail
	MOVUPS   (SI)(AX*4), X0
	MINPS    X0, X15
	MASSPASS
	CMPL     BX, $15
	JNE      massbad
	MASSFLAG(0)
	MASSFLAG(1)
	MASSFLAG(2)
	MASSFLAG(3)
	CVTPS2PD X1, X3           // (a0, a1)
	MOVUPD   (R9)(AX*8), X4
	MULPD    X4, X3
	ADDPD    X3, X13
	MOVHLPS  X1, X1
	CVTPS2PD X1, X3           // (a2, a3)
	MOVUPD   16(R9)(AX*8), X4
	MULPD    X4, X3
	ADDPD    X3, X13
	ADDQ     $4, AX
	JMP      masspass

masstail:
	// One score in lane 0; lanes 1-3 compute values nothing reads.
	CMPQ     AX, CX
	JGE      massdone
	MOVSS    (SI)(AX*4), X0
	MINSS    X0, X15
	MASSPASS
	TESTL    $1, BX
	JEQ      massbad
	MASSFLAG(0)
	CVTSS2SD X1, X3
	MULSD    (R9)(AX*8), X3
	ADDSD    X3, X13
	INCQ     AX
	JMP      masstail

massdone:
	// total = s0 + s1; smin = min(min(m0, m2), min(m1, m3)).
	MOVAPD   X13, X3
	UNPCKHPD X3, X3
	ADDSD    X3, X13
	MOVHLPS  X15, X3
	MINPS    X3, X15
	PSHUFD   $1, X15, X3
	MINSS    X3, X15
	MOVSD    X13, total+80(FP)
	MOVSS    X15, smin+88(FP)
	MOVQ     R12, n+96(FP)
	MOVB     $1, ok+104(FP)
	RET

massbad:
	MOVQ     $0, total+80(FP)
	MOVL     $0, smin+88(FP)
	MOVQ     R12, n+96(FP)
	MOVB     $0, ok+104(FP)
	RET
