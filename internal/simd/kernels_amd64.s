//go:build amd64 && !purego

#include "textflag.h"

// AVX2 span-engine kernels. Ground rules shared by every function here:
//
//   - 4-wide VMULPD/VADDPD lanes only, never FMA: each lane performs the
//     scalar engine's exact operation sequence (one rounded multiply, one
//     rounded add), so vector and scalar grids are bitwise identical.
//   - partial vectors use VMASKMOVPD against maskTab: the kernels never
//     touch memory outside the slices they were handed, so no Go-side
//     re-entry for unaligned tails is ever needed.
//   - support predicates use VCMPPD with GE_OQ (0x1d), the quiet analogue
//     of the scalar engine's `>=` comparison: NaN compares false and falls
//     through to the arithmetic, exactly like the scalar else-branch.

// maskTab is the sliding VMASKMOVPD mask table: 4 all-ones qwords followed
// by 3 zero qwords. Loading 4 qwords at offset (4-r)*8 yields a mask
// selecting the first r lanes, r in 1..4.
DATA maskTab<>+0x00(SB)/8, $0xffffffffffffffff
DATA maskTab<>+0x08(SB)/8, $0xffffffffffffffff
DATA maskTab<>+0x10(SB)/8, $0xffffffffffffffff
DATA maskTab<>+0x18(SB)/8, $0xffffffffffffffff
DATA maskTab<>+0x20(SB)/8, $0x0000000000000000
DATA maskTab<>+0x28(SB)/8, $0x0000000000000000
DATA maskTab<>+0x30(SB)/8, $0x0000000000000000
GLOBL maskTab<>(SB), RODATA|NOPTR, $56

// fpOne is the float64 constant 1.0.
DATA fpOne<>+0x00(SB)/8, $0x3ff0000000000000
GLOBL fpOne<>(SB), RODATA|NOPTR, $8

// func addAVX2(dst, src []float64)
//
// dst[i] += src[i]; len(dst) == len(src) (wrapper reslices).
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   addHead4

addLoop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     addLoop8

addHead4:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JLT  addTail
	VMOVUPD (SI)(AX*8), Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, DX

addTail:
	TESTQ DX, DX
	JZ    addDone
	MOVQ  $4, R8
	SUBQ  DX, R8
	LEAQ  maskTab<>(SB), R9
	VMOVUPD    (R9)(R8*8), Y3
	VMASKMOVPD (SI)(AX*8), Y3, Y1
	VMASKMOVPD (DI)(AX*8), Y3, Y2
	VADDPD     Y2, Y1, Y1
	VMASKMOVPD Y1, Y3, (DI)(AX*8)

addDone:
	VZEROUPPER
	RET

// func mulAddRowsAVX2(data []float64, stride int, ks, bar []float64)
//
// For each row iy in [0, len(ks)):
//
//	data[iy*stride : iy*stride+len(bar)] += ks[iy] * bar
//
// The wrapper has verified stride >= len(bar) and that data covers the
// last row. The bar is held in registers whenever it fits:
//
//   - bn in 1..4: the bar is masked-loaded into one register once and
//     every row is a single masked multiply-add;
//   - bn in 5..16: the bar's full vectors are loaded into up to four
//     registers (Y8..Y11) and its masked tail into Y12, once per call.
//     Each row is then one broadcast, and per vector one VMULPD against a
//     register, one VADDPD with the row and one store, plus one masked
//     multiply-add for the tail: the bar is never reloaded;
//   - bn > 16: the bar is reloaded from memory 4 lanes at a time per row.
//
// BenchmarkMulAddRows on a 2-vCPU AVX2 host (48 KiB L1d, 2 MiB L2 per
// core), ns per updated element, median of 11 alternating runs, the old
// kernel (bar reloaded per row) against the register-resident bar; 32 rows
// 40 elements apart per call, revisiting 32 KiB (L1) or walking 1 MiB (L2):
//
//	bn   L1: reload  register   L2: reload  register
//	 5         0.70      0.58          0.68      0.60
//	 9         0.45      0.36          0.52      0.43
//	15         0.33      0.24          0.38      0.28
//
// With its rows in L1 the kernel is bound by its instruction count, which
// the register-resident bar cuts; rows streamed from L2 are bound more by
// L2 bandwidth, which is why the span engine also applies PB-SYM cylinders
// in blocks that keep a column's rows in L1.
TEXT ·mulAddRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ data_base+0(FP), DI
	MOVQ stride+24(FP), R10
	SHLQ $3, R10
	MOVQ ks_base+32(FP), R11
	MOVQ ks_len+40(FP), R12
	MOVQ bar_base+56(FP), SI
	MOVQ bar_len+64(FP), CX
	CMPQ CX, $4
	JLE  marSmall

	// bn > 4. BX = bn &^ 3 vectorized lanes per row, DX = bn & 3 masked
	// tail lanes (mask in Y4, loaded once).
	MOVQ CX, BX
	ANDQ $-4, BX
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   marMask
	MOVQ $4, R8
	SUBQ DX, R8
	LEAQ maskTab<>(SB), R9
	VMOVUPD (R9)(R8*8), Y4

marMask:
	CMPQ CX, $16
	JGT  marRow

	// Register-resident bar, bn in 5..16: BX is 4, 8, 12 or 16. Load the
	// full vectors into Y8..Y11 and the tail (if any) into Y12.
	VMOVUPD (SI), Y8
	CMPQ    BX, $8
	JLT     marRegTail
	VMOVUPD 32(SI), Y9
	CMPQ    BX, $12
	JLT     marRegTail
	VMOVUPD 64(SI), Y10
	CMPQ    BX, $16
	JLT     marRegTail
	VMOVUPD 96(SI), Y11

marRegTail:
	TESTQ DX, DX
	JZ    marRegRow
	VMASKMOVPD (SI)(BX*8), Y4, Y12

marRegRow:
	TESTQ R12, R12
	JZ    marDone
	VBROADCASTSD (R11), Y0
	VMULPD  Y8, Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	CMPQ    BX, $8
	JLT     marRegRowTail
	VMULPD  Y9, Y0, Y2
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y2, 32(DI)
	CMPQ    BX, $12
	JLT     marRegRowTail
	VMULPD  Y10, Y0, Y3
	VADDPD  64(DI), Y3, Y3
	VMOVUPD Y3, 64(DI)
	CMPQ    BX, $16
	JLT     marRegRowTail
	VMULPD  Y11, Y0, Y5
	VADDPD  96(DI), Y5, Y5
	VMOVUPD Y5, 96(DI)

marRegRowTail:
	TESTQ DX, DX
	JZ    marRegNext
	VMULPD     Y12, Y0, Y6
	VMASKMOVPD (DI)(BX*8), Y4, Y7
	VADDPD     Y7, Y6, Y6
	VMASKMOVPD Y6, Y4, (DI)(BX*8)

marRegNext:
	ADDQ $8, R11
	ADDQ R10, DI
	DECQ R12
	JMP  marRegRow

marRow:
	TESTQ R12, R12
	JZ    marDone
	VBROADCASTSD (R11), Y0
	XORQ  AX, AX

marCol4:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     marCol4

	TESTQ DX, DX
	JZ    marNext
	VMASKMOVPD (SI)(AX*8), Y4, Y1
	VMULPD     Y1, Y0, Y1
	VMASKMOVPD (DI)(AX*8), Y4, Y2
	VADDPD     Y2, Y1, Y1
	VMASKMOVPD Y1, Y4, (DI)(AX*8)

marNext:
	ADDQ $8, R11
	ADDQ R10, DI
	DECQ R12
	JMP  marRow

marSmall:
	// bn in 1..4: load the bar (masked) into Y5 once; one masked
	// multiply-add per row.
	MOVQ $4, R8
	SUBQ CX, R8
	LEAQ maskTab<>(SB), R9
	VMOVUPD    (R9)(R8*8), Y4
	VMASKMOVPD (SI), Y4, Y5

marSmallRow:
	TESTQ R12, R12
	JZ    marDone
	VBROADCASTSD (R11), Y0
	VMULPD     Y5, Y0, Y1
	VMASKMOVPD (DI), Y4, Y2
	VADDPD     Y2, Y1, Y1
	VMASKMOVPD Y1, Y4, (DI)
	ADDQ       $8, R11
	ADDQ       R10, DI
	DECQ       R12
	JMP        marSmallRow

marDone:
	VZEROUPPER
	RET

// func fillDiskPolyAVX2(dst, w2 []float64, uu, kc, norm float64, deg int)
//
// dst[i] = (uu+w2[i] >= 1) ? 0 : kc * (1-(uu+w2[i]))^deg * norm, with the
// product chained left-to-right exactly like the scalar engine (and, for
// deg 0, the same single kc*norm rounding). deg in 0..3 (wrapper-checked);
// the three compare-and-skip branches resolve identically on every
// iteration, so they predict perfectly.
TEXT ·fillDiskPolyAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ w2_base+24(FP), SI
	VBROADCASTSD uu+48(FP), Y0
	VBROADCASTSD kc+56(FP), Y5
	VBROADCASTSD norm+64(FP), Y6
	MOVQ deg+72(FP), R10
	LEAQ fpOne<>(SB), R9
	VBROADCASTSD (R9), Y7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	MOVQ CX, DX
	ANDQ $3, DX
	CMPQ BX, $0
	JEQ  fdpTail

fdpLoop:
	VMOVUPD (SI)(AX*8), Y1
	VADDPD  Y1, Y0, Y1        // r2 = uu + w2[i]
	VCMPPD  $0x1d, Y7, Y1, Y3 // mask: r2 >= 1
	VSUBPD  Y1, Y7, Y1        // d = 1 - r2
	VMOVAPD Y5, Y2            // acc = kc
	CMPQ    R10, $1
	JLT     fdpPoly
	VMULPD  Y1, Y2, Y2
	CMPQ    R10, $2
	JLT     fdpPoly
	VMULPD  Y1, Y2, Y2
	CMPQ    R10, $3
	JLT     fdpPoly
	VMULPD  Y1, Y2, Y2

fdpPoly:
	VMULPD  Y6, Y2, Y2 // acc *= norm
	VANDNPD Y2, Y3, Y2 // zero out-of-disk lanes
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     fdpLoop

fdpTail:
	TESTQ DX, DX
	JZ    fdpDone
	MOVQ  $4, R8
	SUBQ  DX, R8
	LEAQ  maskTab<>(SB), R9
	VMOVUPD    (R9)(R8*8), Y4
	VMASKMOVPD (SI)(AX*8), Y4, Y1
	VADDPD     Y1, Y0, Y1
	VCMPPD     $0x1d, Y7, Y1, Y3
	VSUBPD     Y1, Y7, Y1
	VMOVAPD    Y5, Y2
	CMPQ       R10, $1
	JLT        fdpPolyT
	VMULPD     Y1, Y2, Y2
	CMPQ       R10, $2
	JLT        fdpPolyT
	VMULPD     Y1, Y2, Y2
	CMPQ       R10, $3
	JLT        fdpPolyT
	VMULPD     Y1, Y2, Y2

fdpPolyT:
	VMULPD     Y6, Y2, Y2
	VANDNPD    Y2, Y3, Y2
	VMASKMOVPD Y2, Y4, (DI)(AX*8)

fdpDone:
	VZEROUPPER
	RET

// func fillBarPolyAVX2(dst, w []float64, kc float64, deg int)
//
// dst[i] = (w[i]² >= 1) ? 0 : kc * (1-w[i]²)^deg, product chained like the
// scalar engine. deg in 0..3 (wrapper-checked).
TEXT ·fillBarPolyAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	VBROADCASTSD kc+48(FP), Y5
	MOVQ deg+56(FP), R10
	LEAQ fpOne<>(SB), R9
	VBROADCASTSD (R9), Y7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	MOVQ CX, DX
	ANDQ $3, DX
	CMPQ BX, $0
	JEQ  fbpTail

fbpLoop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y1, Y1        // ww = w*w
	VCMPPD  $0x1d, Y7, Y1, Y3 // mask: ww >= 1
	VSUBPD  Y1, Y7, Y1        // d = 1 - ww
	VMOVAPD Y5, Y2            // acc = kc
	CMPQ    R10, $1
	JLT     fbpPoly
	VMULPD  Y1, Y2, Y2
	CMPQ    R10, $2
	JLT     fbpPoly
	VMULPD  Y1, Y2, Y2
	CMPQ    R10, $3
	JLT     fbpPoly
	VMULPD  Y1, Y2, Y2

fbpPoly:
	VANDNPD Y2, Y3, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     fbpLoop

fbpTail:
	TESTQ DX, DX
	JZ    fbpDone
	MOVQ  $4, R8
	SUBQ  DX, R8
	LEAQ  maskTab<>(SB), R9
	VMOVUPD    (R9)(R8*8), Y4
	VMASKMOVPD (SI)(AX*8), Y4, Y1
	VMULPD     Y1, Y1, Y1
	VCMPPD     $0x1d, Y7, Y1, Y3
	VSUBPD     Y1, Y7, Y1
	VMOVAPD    Y5, Y2
	CMPQ       R10, $1
	JLT        fbpPolyT
	VMULPD     Y1, Y2, Y2
	CMPQ       R10, $2
	JLT        fbpPolyT
	VMULPD     Y1, Y2, Y2
	CMPQ       R10, $3
	JLT        fbpPolyT
	VMULPD     Y1, Y2, Y2

fbpPolyT:
	VANDNPD    Y2, Y3, Y2
	VMASKMOVPD Y2, Y4, (DI)(AX*8)

fbpDone:
	VZEROUPPER
	RET
