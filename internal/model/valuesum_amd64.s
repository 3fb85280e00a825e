#include "textflag.h"

// func addWeightedKernel(oh, w, vals []float32)
//
// A vector lane is one output column d. Columns are taken 16 at a time
// (X0..X3), then 4 (X0), then one; for each block the candidates run in
// order, so oh[d] receives w[c]*vals[c][d] for c = 0, 1, ... exactly as the
// Go loop adds them, with no FMA. A weight is skipped when it compares equal
// to zero (+0 or -0); UCOMISS reports NaN as unordered (parity set), and a
// NaN weight is used. Loads are unaligned (MOVUPS). Nothing here changes
// MXCSR.
TEXT ·addWeightedKernel(SB), NOSPLIT, $0-72
	MOVQ  oh_base+0(FP), DI
	MOVQ  oh_len+8(FP), DX
	MOVQ  w_base+24(FP), SI
	MOVQ  w_len+32(FP), CX
	MOVQ  vals_base+48(FP), R8
	MOVQ  DX, BX
	SHLQ  $2, BX             // BX = bytes per value row
	XORPS X7, X7
	XORQ  AX, AX             // AX = first column of the block

cols16:
	LEAQ   16(AX), R12
	CMPQ   R12, DX
	JGT    cols4
	MOVUPS (DI)(AX*4), X0
	MOVUPS 16(DI)(AX*4), X1
	MOVUPS 32(DI)(AX*4), X2
	MOVUPS 48(DI)(AX*4), X3
	LEAQ   (R8)(AX*4), R9    // R9 = &vals[c][AX]
	XORQ   R10, R10          // R10 = c

cand16:
	CMPQ    R10, CX
	JGE     store16
	MOVSS   (SI)(R10*4), X4
	INCQ    R10
	UCOMISS X7, X4
	JPS     use16
	JEQ     skip16

use16:
	SHUFPS $0, X4, X4
	MOVUPS (R9), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS 16(R9), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS 32(R9), X5
	MULPS  X4, X5
	ADDPS  X5, X2
	MOVUPS 48(R9), X6
	MULPS  X4, X6
	ADDPS  X6, X3

skip16:
	ADDQ BX, R9
	JMP  cand16

store16:
	MOVUPS X0, (DI)(AX*4)
	MOVUPS X1, 16(DI)(AX*4)
	MOVUPS X2, 32(DI)(AX*4)
	MOVUPS X3, 48(DI)(AX*4)
	MOVQ   R12, AX
	JMP    cols16

cols4:
	LEAQ   4(AX), R12
	CMPQ   R12, DX
	JGT    cols1
	MOVUPS (DI)(AX*4), X0
	LEAQ   (R8)(AX*4), R9
	XORQ   R10, R10

cand4:
	CMPQ    R10, CX
	JGE     store4
	MOVSS   (SI)(R10*4), X4
	INCQ    R10
	UCOMISS X7, X4
	JPS     use4
	JEQ     skip4

use4:
	SHUFPS $0, X4, X4
	MOVUPS (R9), X5
	MULPS  X4, X5
	ADDPS  X5, X0

skip4:
	ADDQ BX, R9
	JMP  cand4

store4:
	MOVUPS X0, (DI)(AX*4)
	MOVQ   R12, AX
	JMP    cols4

cols1:
	CMPQ  AX, DX
	JGE   done
	MOVSS (DI)(AX*4), X0
	LEAQ  (R8)(AX*4), R9
	XORQ  R10, R10

cand1:
	CMPQ    R10, CX
	JGE     store1
	MOVSS   (SI)(R10*4), X4
	INCQ    R10
	UCOMISS X7, X4
	JPS     use1
	JEQ     skip1

use1:
	MOVSS (R9), X5
	MULSS X4, X5
	ADDSS X5, X0

skip1:
	ADDQ BX, R9
	JMP  cand1

store1:
	MOVSS X0, (DI)(AX*4)
	INCQ  AX
	JMP   cols1

done:
	RET
