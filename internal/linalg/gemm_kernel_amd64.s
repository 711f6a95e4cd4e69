//go:build amd64 && !purego

#include "textflag.h"

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Every micro-kernel shares one contract (kernel.tile in gemm_kernel.go)
// and one register assignment outside the vector file:
//	CX  kc loop counter
//	SI  ap (packed A micro-panel: kc steps of mr doubles)
//	BX  bp (packed B micro-panel: kc steps of nr doubles)
//	DI  c  (top-left of the output tile)
//	DX  ldc in bytes
//	R8  mr, rows of the tile that exist in C
//	R9  nr, columns of the tile that exist in C
// The k loop always runs the full register tile — the packed panels are
// zero-padded — and only the update of C looks at mr and nr. One FMA
// per accumulator per k step, in k order, from a zeroed accumulator,
// then one add into C: the sequence every kernel must keep.

// avx2Masks<> is eight all-ones quadwords followed by eight zeros; the
// four quadwords at index 8-nr+j mask columns j..j+3 of a row with nr
// valid columns.
DATA avx2Masks<>+0(SB)/8, $-1
DATA avx2Masks<>+8(SB)/8, $-1
DATA avx2Masks<>+16(SB)/8, $-1
DATA avx2Masks<>+24(SB)/8, $-1
DATA avx2Masks<>+32(SB)/8, $-1
DATA avx2Masks<>+40(SB)/8, $-1
DATA avx2Masks<>+48(SB)/8, $-1
DATA avx2Masks<>+56(SB)/8, $-1
DATA avx2Masks<>+64(SB)/8, $0
DATA avx2Masks<>+72(SB)/8, $0
DATA avx2Masks<>+80(SB)/8, $0
DATA avx2Masks<>+88(SB)/8, $0
DATA avx2Masks<>+96(SB)/8, $0
DATA avx2Masks<>+104(SB)/8, $0
DATA avx2Masks<>+112(SB)/8, $0
DATA avx2Masks<>+120(SB)/8, $0
GLOBL avx2Masks<>(SB), RODATA|NOPTR, $128

// One C row of the 4×8 tile, all eight columns present.
#define AVX2_ROW(lo, hi) \
	VADDPD  (DI), lo, lo;  \
	VMOVUPD lo, (DI);      \
	VADDPD  32(DI), hi, hi; \
	VMOVUPD hi, 32(DI)

// One C row under the column masks Y12 (columns 0..3) and Y13 (4..7):
// masked-off lanes are neither loaded nor stored.
#define AVX2_ROW_MASKED(lo, hi) \
	VMASKMOVPD (DI), Y12, Y14; \
	VADDPD     Y14, lo, lo; \
	VMASKMOVPD lo, Y12, (DI); \
	VMASKMOVPD 32(DI), Y13, Y14; \
	VADDPD     Y14, hi, hi; \
	VMASKMOVPD hi, Y13, 32(DI)

// func microKernelAVX2(kc int, ap, bp, c []float64, ldc, mr, nr int)
//
//	Y0..Y7   C accumulators: Y(2i) = row i cols 0..3, Y(2i+1) = cols 4..7
//	Y8, Y9   current B row halves
//	Y10      broadcast A element
TEXT ·microKernelAVX2(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), BX
	MOVQ c_base+56(FP), DI
	MOVQ ldc+80(FP), DX
	MOVQ mr+88(FP), R8
	MOVQ nr+96(FP), R9
	SHLQ $3, DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    update

	PCALIGN $32
loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9

	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1

	VBROADCASTSD 8(SI), Y10
	VFMADD231PD  Y8, Y10, Y2
	VFMADD231PD  Y9, Y10, Y3

	VBROADCASTSD 16(SI), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5

	VBROADCASTSD 24(SI), Y10
	VFMADD231PD  Y8, Y10, Y6
	VFMADD231PD  Y9, Y10, Y7

	ADDQ $32, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  loop

update:
	CMPQ R8, $4
	JNE  fringe
	CMPQ R9, $8
	JNE  fringe

	AVX2_ROW(Y0, Y1)
	ADDQ DX, DI
	AVX2_ROW(Y2, Y3)
	ADDQ DX, DI
	AVX2_ROW(Y4, Y5)
	ADDQ DX, DI
	AVX2_ROW(Y6, Y7)
	VZEROUPPER
	RET

fringe:
	LEAQ    avx2Masks<>(SB), AX
	MOVQ    $8, R10
	SUBQ    R9, R10
	VMOVDQU (AX)(R10*8), Y12
	VMOVDQU 32(AX)(R10*8), Y13

	AVX2_ROW_MASKED(Y0, Y1)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX2_ROW_MASKED(Y2, Y3)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX2_ROW_MASKED(Y4, Y5)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX2_ROW_MASKED(Y6, Y7)

done:
	VZEROUPPER
	RET

// One k step of the 8×16 tile: ao and bo are the byte offsets of the
// step's A column and B row from SI and BX.
#define AVX512_STEP(ao, bo) \
	VMOVUPD      bo(BX), Z16; \
	VMOVUPD      bo+64(BX), Z17; \
	VBROADCASTSD ao(SI), Z18; \
	VFMADD231PD  Z16, Z18, Z0; \
	VFMADD231PD  Z17, Z18, Z1; \
	VBROADCASTSD ao+8(SI), Z19; \
	VFMADD231PD  Z16, Z19, Z2; \
	VFMADD231PD  Z17, Z19, Z3; \
	VBROADCASTSD ao+16(SI), Z20; \
	VFMADD231PD  Z16, Z20, Z4; \
	VFMADD231PD  Z17, Z20, Z5; \
	VBROADCASTSD ao+24(SI), Z21; \
	VFMADD231PD  Z16, Z21, Z6; \
	VFMADD231PD  Z17, Z21, Z7; \
	VBROADCASTSD ao+32(SI), Z22; \
	VFMADD231PD  Z16, Z22, Z8; \
	VFMADD231PD  Z17, Z22, Z9; \
	VBROADCASTSD ao+40(SI), Z23; \
	VFMADD231PD  Z16, Z23, Z10; \
	VFMADD231PD  Z17, Z23, Z11; \
	VBROADCASTSD ao+48(SI), Z24; \
	VFMADD231PD  Z16, Z24, Z12; \
	VFMADD231PD  Z17, Z24, Z13; \
	VBROADCASTSD ao+56(SI), Z25; \
	VFMADD231PD  Z16, Z25, Z14; \
	VFMADD231PD  Z17, Z25, Z15

// One C row under the opmasks K1 (columns 0..7) and K2 (8..15); a
// masked-off lane is neither loaded nor stored, and an empty mask
// touches no memory at all.
#define AVX512_ROW(lo, hi) \
	VADDPD  (DI), lo, K1, lo; \
	VMOVUPD lo, K1, (DI);  \
	VADDPD  64(DI), hi, K2, hi; \
	VMOVUPD hi, K2, 64(DI)

// func microKernelAVX512(kc int, ap, bp, c []float64, ldc, mr, nr int)
//
//	Z0..Z15   C accumulators: Z(2i) = row i cols 0..7, Z(2i+1) = cols 8..15
//	Z16, Z17  current B row halves
//	Z18..Z25  broadcast A elements, one register per row
//	K1, K2    column masks for the two halves of a C row
TEXT ·microKernelAVX512(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), BX
	MOVQ c_base+56(FP), DI
	MOVQ ldc+80(FP), DX
	MOVQ mr+88(FP), R8
	MOVQ nr+96(FP), R9
	SHLQ $3, DX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	// Ask for the C tile now; the k loop hides the misses. A row of 16
	// doubles at an arbitrary offset spans up to three cache lines.
	// (Rows past mr are prefetched too: a prefetch cannot fault.)
	MOVQ DI, R11
	MOVQ $8, R10
prefetch:
	PREFETCHT0 (R11)
	PREFETCHT0 64(R11)
	PREFETCHT0 127(R11)
	ADDQ       DX, R11
	DECQ       R10
	JNZ        prefetch

	// Two k steps per trip, then the odd one.
	MOVQ CX, R10
	SHRQ $1, CX
	JZ   tail

	PCALIGN $64
loop2:
	AVX512_STEP(0, 0)
	AVX512_STEP(64, 128)
	ADDQ $128, SI
	ADDQ $256, BX
	DECQ CX
	JNZ  loop2

tail:
	TESTQ $1, R10
	JZ    update
	AVX512_STEP(0, 0)

update:
	// K1 = low byte, K2 = high byte of (1 << nr) - 1.
	MOVQ  R9, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	SHRL  $8, AX
	KMOVW AX, K2

	AVX512_ROW(Z0, Z1)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW(Z2, Z3)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW(Z4, Z5)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW(Z6, Z7)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW(Z8, Z9)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW(Z10, Z11)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW(Z12, Z13)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW(Z14, Z15)

done:
	VZEROUPPER
	RET

// One k step of the 20×8 tile: ao and bo are the byte offsets of the
// step's A column and B row from SI and BX. Each FMA broadcasts its A
// element straight from memory, so one register holds the B row and
// twenty hold the tile.
#define AVX512_20X8_STEP(ao, bo) \
	VMOVUPD          bo(BX), Z20; \
	VFMADD231PD.BCST ao(SI), Z20, Z0; \
	VFMADD231PD.BCST ao+8(SI), Z20, Z1; \
	VFMADD231PD.BCST ao+16(SI), Z20, Z2; \
	VFMADD231PD.BCST ao+24(SI), Z20, Z3; \
	VFMADD231PD.BCST ao+32(SI), Z20, Z4; \
	VFMADD231PD.BCST ao+40(SI), Z20, Z5; \
	VFMADD231PD.BCST ao+48(SI), Z20, Z6; \
	VFMADD231PD.BCST ao+56(SI), Z20, Z7; \
	VFMADD231PD.BCST ao+64(SI), Z20, Z8; \
	VFMADD231PD.BCST ao+72(SI), Z20, Z9; \
	VFMADD231PD.BCST ao+80(SI), Z20, Z10; \
	VFMADD231PD.BCST ao+88(SI), Z20, Z11; \
	VFMADD231PD.BCST ao+96(SI), Z20, Z12; \
	VFMADD231PD.BCST ao+104(SI), Z20, Z13; \
	VFMADD231PD.BCST ao+112(SI), Z20, Z14; \
	VFMADD231PD.BCST ao+120(SI), Z20, Z15; \
	VFMADD231PD.BCST ao+128(SI), Z20, Z16; \
	VFMADD231PD.BCST ao+136(SI), Z20, Z17; \
	VFMADD231PD.BCST ao+144(SI), Z20, Z18; \
	VFMADD231PD.BCST ao+152(SI), Z20, Z19

// One C row of the 20×8 tile under the opmask K1 (columns 0..7).
#define AVX512_ROW8(acc) \
	VADDPD  (DI), acc, K1, acc; \
	VMOVUPD acc, K1, (DI)

// func microKernelAVX512x20(kc int, ap, bp, c []float64, ldc, mr, nr int)
//
//	Z0..Z19   C accumulators: Z(i) = row i, cols 0..7
//	Z20       current B row
//	K1        column mask of a C row
TEXT ·microKernelAVX512x20(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), BX
	MOVQ c_base+56(FP), DI
	MOVQ ldc+80(FP), DX
	MOVQ mr+88(FP), R8
	MOVQ nr+96(FP), R9
	SHLQ $3, DX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19

	// Ask for the C tile now, as the 8×16 kernel does; a row of 8
	// doubles spans up to two cache lines.
	MOVQ DI, R11
	MOVQ $20, R10
prefetch:
	PREFETCHT0 (R11)
	PREFETCHT0 63(R11)
	ADDQ       DX, R11
	DECQ       R10
	JNZ        prefetch

	// Two k steps per trip, then the odd one.
	MOVQ CX, R10
	SHRQ $1, CX
	JZ   tail

	PCALIGN $64
loop2:
	AVX512_20X8_STEP(0, 0)
	AVX512_20X8_STEP(160, 64)
	ADDQ $320, SI
	ADDQ $128, BX
	DECQ CX
	JNZ  loop2

tail:
	TESTQ $1, R10
	JZ    update
	AVX512_20X8_STEP(0, 0)

update:
	// K1 = (1 << nr) - 1.
	MOVQ  R9, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1

	AVX512_ROW8(Z0)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z1)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z2)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z3)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z4)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z5)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z6)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z7)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z8)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z9)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z10)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z11)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z12)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z13)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z14)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z15)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z16)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z17)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z18)
	DECQ R8
	JZ   done
	ADDQ DX, DI
	AVX512_ROW8(Z19)

done:
	VZEROUPPER
	RET
