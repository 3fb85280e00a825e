#include "textflag.h"

// A vector lane is one output column j. Each lane computes
// ((x0*b0[j] + x1*b1[j]) + x2*b2[j]) + x3*b3[j] and adds it to o[j], which
// is Go's left-to-right order for o[j] += x0*b0[j] + x1*b1[j] + x2*b2[j] +
// x3*b3[j]; columns past the last multiple of 4 run the same operations in
// scalar code. There is no FMA, so every rounding is Go's. Loads are
// unaligned (MOVUPS): a packed multiply or add takes register operands only.
// Nothing here changes MXCSR.

// func axpy4Kernel(o []float32, x *[4]float32, g []float32)
TEXT ·axpy4Kernel(SB), NOSPLIT, $0-56
	MOVQ   o_base+0(FP), DI
	MOVQ   o_len+8(FP), CX
	MOVQ   x+24(FP), AX
	MOVQ   g_base+32(FP), SI
	MOVSS  (AX), X4
	SHUFPS $0, X4, X4
	MOVSS  4(AX), X5
	SHUFPS $0, X5, X5
	MOVSS  8(AX), X6
	SHUFPS $0, X6, X6
	MOVSS  12(AX), X7
	SHUFPS $0, X7, X7
	MOVQ   CX, BX
	SHLQ   $2, BX             // BX = bytes per B row
	LEAQ   (SI)(BX*1), R8     // b1
	LEAQ   (R8)(BX*1), R9     // b2
	LEAQ   (R9)(BX*1), R10    // b3
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    tail

quad:
	MOVUPS (SI)(AX*4), X0
	MULPS  X4, X0
	MOVUPS (R8)(AX*4), X1
	MULPS  X5, X1
	ADDPS  X1, X0
	MOVUPS (R9)(AX*4), X1
	MULPS  X6, X1
	ADDPS  X1, X0
	MOVUPS (R10)(AX*4), X1
	MULPS  X7, X1
	ADDPS  X1, X0
	MOVUPS (DI)(AX*4), X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    quad

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSS (SI)(AX*4), X0
	MULSS X4, X0
	MOVSS (R8)(AX*4), X1
	MULSS X5, X1
	ADDSS X1, X0
	MOVSS (R9)(AX*4), X1
	MULSS X6, X1
	ADDSS X1, X0
	MOVSS (R10)(AX*4), X1
	MULSS X7, X1
	ADDSS X1, X0
	MOVSS (DI)(AX*4), X1
	ADDSS X0, X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   tail

done:
	RET

// func axpy4x2Kernel(o0, o1 []float32, x, y *[4]float32, g []float32)
//
// Each pass loads the group's four B values c0..c3 once for both outputs:
// X4..X7 hold x, X8..X11 hold y.
TEXT ·axpy4x2Kernel(SB), NOSPLIT, $0-88
	MOVQ   o0_base+0(FP), DI
	MOVQ   o0_len+8(FP), CX
	MOVQ   o1_base+24(FP), R11
	MOVQ   x+48(FP), AX
	MOVSS  (AX), X4
	SHUFPS $0, X4, X4
	MOVSS  4(AX), X5
	SHUFPS $0, X5, X5
	MOVSS  8(AX), X6
	SHUFPS $0, X6, X6
	MOVSS  12(AX), X7
	SHUFPS $0, X7, X7
	MOVQ   y+56(FP), AX
	MOVSS  (AX), X8
	SHUFPS $0, X8, X8
	MOVSS  4(AX), X9
	SHUFPS $0, X9, X9
	MOVSS  8(AX), X10
	SHUFPS $0, X10, X10
	MOVSS  12(AX), X11
	SHUFPS $0, X11, X11
	MOVQ   g_base+64(FP), SI
	MOVQ   CX, BX
	SHLQ   $2, BX
	LEAQ   (SI)(BX*1), R8
	LEAQ   (R8)(BX*1), R9
	LEAQ   (R9)(BX*1), R10
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    tail

quad:
	MOVUPS (SI)(AX*4), X0
	MOVUPS (R8)(AX*4), X1
	MOVUPS (R9)(AX*4), X2
	MOVUPS (R10)(AX*4), X3
	MOVAPS X0, X12
	MULPS  X4, X12
	MOVAPS X1, X13
	MULPS  X5, X13
	ADDPS  X13, X12
	MOVAPS X2, X13
	MULPS  X6, X13
	ADDPS  X13, X12
	MOVAPS X3, X13
	MULPS  X7, X13
	ADDPS  X13, X12
	MOVUPS (DI)(AX*4), X13
	ADDPS  X12, X13
	MOVUPS X13, (DI)(AX*4)
	MULPS  X8, X0
	MULPS  X9, X1
	ADDPS  X1, X0
	MULPS  X10, X2
	ADDPS  X2, X0
	MULPS  X11, X3
	ADDPS  X3, X0
	MOVUPS (R11)(AX*4), X1
	ADDPS  X0, X1
	MOVUPS X1, (R11)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    quad

tail:
	CMPQ   AX, CX
	JGE    done
	MOVSS  (SI)(AX*4), X0
	MOVSS  (R8)(AX*4), X1
	MOVSS  (R9)(AX*4), X2
	MOVSS  (R10)(AX*4), X3
	MOVAPS X0, X12
	MULSS  X4, X12
	MOVAPS X1, X13
	MULSS  X5, X13
	ADDSS  X13, X12
	MOVAPS X2, X13
	MULSS  X6, X13
	ADDSS  X13, X12
	MOVAPS X3, X13
	MULSS  X7, X13
	ADDSS  X13, X12
	MOVSS  (DI)(AX*4), X13
	ADDSS  X12, X13
	MOVSS  X13, (DI)(AX*4)
	MULSS  X8, X0
	MULSS  X9, X1
	ADDSS  X1, X0
	MULSS  X10, X2
	ADDSS  X2, X0
	MULSS  X11, X3
	ADDSS  X3, X0
	MOVSS  (R11)(AX*4), X1
	ADDSS  X0, X1
	MOVSS  X1, (R11)(AX*4)
	INCQ   AX
	JMP    tail

done:
	RET

// func axpyKernel(o []float32, x float32, brow []float32)
TEXT ·axpyKernel(SB), NOSPLIT, $0-56
	MOVQ   o_base+0(FP), DI
	MOVQ   o_len+8(FP), CX
	MOVSS  x+24(FP), X4
	SHUFPS $0, X4, X4
	MOVQ   brow_base+32(FP), SI
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    tail

quad:
	MOVUPS (SI)(AX*4), X0
	MULPS  X4, X0
	MOVUPS (DI)(AX*4), X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    quad

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSS (SI)(AX*4), X0
	MULSS X4, X0
	MOVSS (DI)(AX*4), X1
	ADDSS X0, X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   tail

done:
	RET
