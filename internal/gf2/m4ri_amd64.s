//go:build !purego

#include "textflag.h"

// func clearBlockAVX2(rows []uint64, stride, tw int, shift uint, blockMask uint64, tab []uint64)
//
// The AVX2 twin of clearBlockGo; clearBlock has checked the shapes. Per row
// (DI, stepping R8 bytes up to SI): v = row[0]>>shift & blockMask; a zero v
// skips the row. Otherwise BX, R11, R12, R13 point at the four entries
// tab[(16t + v>>4t & 15)·tw], t = 0..3, and AX walks the row from tw down:
// first the tw mod 4 tail words one at a time in DX, then 4 words per
// VPXOR.
TEXT ·clearBlockAVX2(SB), NOSPLIT, $0-80
	MOVQ rows_base+0(FP), DI
	MOVQ rows_len+8(FP), SI
	LEAQ (DI)(SI*8), SI
	MOVQ stride+24(FP), R8
	SHLQ $3, R8
	MOVQ tw+32(FP), R9
	MOVQ shift+40(FP), CX
	MOVQ tab_base+56(FP), R10

row:
	MOVQ (DI), AX
	SHRQ CX, AX
	ANDQ blockMask+48(FP), AX
	JZ   next

	MOVQ  AX, BX
	ANDQ  $15, BX
	IMULQ R9, BX
	LEAQ  (R10)(BX*8), BX
	MOVQ  AX, R11
	SHRQ  $4, R11
	ANDQ  $15, R11
	ADDQ  $16, R11
	IMULQ R9, R11
	LEAQ  (R10)(R11*8), R11
	MOVQ  AX, R12
	SHRQ  $8, R12
	ANDQ  $15, R12
	ADDQ  $32, R12
	IMULQ R9, R12
	LEAQ  (R10)(R12*8), R12
	SHRQ  $12, AX
	ADDQ  $48, AX
	IMULQ R9, AX
	LEAQ  (R10)(AX*8), R13

	MOVQ R9, AX

tail:
	TESTQ $3, AX
	JZ    wide
	DECQ  AX
	MOVQ  (DI)(AX*8), DX
	XORQ  (BX)(AX*8), DX
	XORQ  (R11)(AX*8), DX
	XORQ  (R12)(AX*8), DX
	XORQ  (R13)(AX*8), DX
	MOVQ  DX, (DI)(AX*8)
	JMP   tail

wide:
	TESTQ AX, AX
	JZ    next

wideloop:
	SUBQ    $4, AX
	VMOVDQU (DI)(AX*8), Y0
	VMOVDQU (BX)(AX*8), Y1
	VPXOR   (R11)(AX*8), Y1, Y1
	VPXOR   (R12)(AX*8), Y0, Y0
	VPXOR   (R13)(AX*8), Y1, Y1
	VPXOR   Y1, Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	TESTQ   AX, AX
	JNZ     wideloop

next:
	ADDQ R8, DI
	CMPQ DI, SI
	JB   row
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
