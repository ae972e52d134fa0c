//go:build amd64

#include "textflag.h"

// AVX2 lane kernels: each processes n int64 elements (n a positive
// multiple of 4, enforced by the Go wrappers) in groups of 4 per ymm
// register, unrolled 2x (8 elements per iteration) with a single-group
// cleanup loop. Loads and stores are unaligned (VMOVDQU); the slabs
// come from the Go heap with no alignment guarantee beyond 8 bytes.
//
// All macros are defined up here, before the first TEXT block, so that
// vet's asmdecl checker does not attribute their FP references to
// whichever function happens to precede them.

// BINOP lays down the shared skeleton of a two-operand kernel: 2x
// unrolled main loop with the op applied as Y1 op Y0 -> Y0 (and Y3 op
// Y2 -> Y2), then a 4-wide cleanup group. Label names are macro
// arguments because this assembler's preprocessor has no token
// pasting.
#define BINOP(OP, lloop, ltail, ldone)  \
	MOVQ dst+0(FP), DI              \
	MOVQ a+8(FP), SI                \
	MOVQ b+16(FP), DX               \
	MOVQ n+24(FP), CX               \
	SHRQ $2, CX                     \
	MOVQ CX, R9                     \
	SHRQ $1, CX                     \
	JZ   ltail                      \
lloop:                                  \
	VMOVDQU (SI), Y0                \
	VMOVDQU 32(SI), Y2              \
	VMOVDQU (DX), Y1                \
	VMOVDQU 32(DX), Y3              \
	OP      Y1, Y0, Y0              \
	OP      Y3, Y2, Y2              \
	VMOVDQU Y0, (DI)                \
	VMOVDQU Y2, 32(DI)              \
	ADDQ    $64, SI                 \
	ADDQ    $64, DX                 \
	ADDQ    $64, DI                 \
	DECQ    CX                      \
	JNZ     lloop                   \
ltail:                                  \
	ANDQ $1, R9                     \
	JZ   ldone                      \
	VMOVDQU (SI), Y0                \
	VMOVDQU (DX), Y1                \
	OP      Y1, Y0, Y0              \
	VMOVDQU Y0, (DI)                \
ldone:                                  \
	VZEROUPPER                      \
	RET

// CMPOP: comparison kernels share the binop skeleton but shift the
// all-ones lane masks down to 0/1 words before the store. SRCA/SRCB
// pick the comparand order for the first group (a in Y0, b in Y1); the
// second unrolled group applies the same order to Y2(a')/Y3(b').
#define CMPOP(CMP, SRCA, SRCB, SRCA2, SRCB2, lloop, ltail, ldone) \
	MOVQ dst+0(FP), DI              \
	MOVQ a+8(FP), SI                \
	MOVQ b+16(FP), DX               \
	MOVQ n+24(FP), CX               \
	SHRQ $2, CX                     \
	MOVQ CX, R9                     \
	SHRQ $1, CX                     \
	JZ   ltail                      \
lloop:                                  \
	VMOVDQU (SI), Y0                \
	VMOVDQU 32(SI), Y2              \
	VMOVDQU (DX), Y1                \
	VMOVDQU 32(DX), Y3              \
	CMP     SRCA, SRCB, Y4          \
	CMP     SRCA2, SRCB2, Y5        \
	VPSRLQ  $63, Y4, Y4             \
	VPSRLQ  $63, Y5, Y5             \
	VMOVDQU Y4, (DI)                \
	VMOVDQU Y5, 32(DI)              \
	ADDQ    $64, SI                 \
	ADDQ    $64, DX                 \
	ADDQ    $64, DI                 \
	DECQ    CX                      \
	JNZ     lloop                   \
ltail:                                  \
	ANDQ $1, R9                     \
	JZ   ldone                      \
	VMOVDQU (SI), Y0                \
	VMOVDQU (DX), Y1                \
	CMP     SRCA, SRCB, Y4          \
	VPSRLQ  $63, Y4, Y4             \
	VMOVDQU Y4, (DI)                \
ldone:                                  \
	VZEROUPPER                      \
	RET

// Batch kernels: one call per same-op instruction run. The outer loop
// walks the run's slot-index arrays (dst/a/b[/c], int32 each) and
// resolves lane base addresses with one 32-bit load and one multiply
// per operand; the inner loop is the same 2x-unrolled ymm body as the
// single-instruction kernels, with no tail (stride is a multiple of 64
// bytes).

// BINOPN: two-source batch kernel skeleton.
#define BINOPN(OP, linstr, llane)       \
	MOVQ vals+0(FP), R10            \
	MOVQ dst+8(FP), DI              \
	MOVQ a+16(FP), SI               \
	MOVQ b+24(FP), DX               \
	MOVQ cnt+32(FP), CX             \
	MOVQ stride+40(FP), R11         \
	MOVQ R11, R8                    \
	SHRQ $6, R8                     \
linstr:                                 \
	MOVL (DI), R12                  \
	IMULQ R11, R12                  \
	ADDQ R10, R12                   \
	MOVL (SI), R13                  \
	IMULQ R11, R13                  \
	ADDQ R10, R13                   \
	MOVL (DX), R14                  \
	IMULQ R11, R14                  \
	ADDQ R10, R14                   \
	MOVQ R8, R9                     \
llane:                                  \
	VMOVDQU (R13), Y0               \
	VMOVDQU 32(R13), Y2             \
	VMOVDQU (R14), Y1               \
	VMOVDQU 32(R14), Y3             \
	OP      Y1, Y0, Y0              \
	OP      Y3, Y2, Y2              \
	VMOVDQU Y0, (R12)               \
	VMOVDQU Y2, 32(R12)             \
	ADDQ    $64, R13                \
	ADDQ    $64, R14                \
	ADDQ    $64, R12                \
	DECQ    R9                      \
	JNZ     llane                   \
	ADDQ $4, DI                     \
	ADDQ $4, SI                     \
	ADDQ $4, DX                     \
	DECQ CX                         \
	JNZ  linstr                     \
	VZEROUPPER                      \
	RET

// CMPOPN: comparison batch kernels; all-ones lane masks shifted to 0/1
// before the store. SRCA/SRCB (and the unrolled SRCA2/SRCB2) pick the
// comparand order: a in Y0/Y2, b in Y1/Y3.
#define CMPOPN(CMP, SRCA, SRCB, SRCA2, SRCB2, linstr, llane) \
	MOVQ vals+0(FP), R10            \
	MOVQ dst+8(FP), DI              \
	MOVQ a+16(FP), SI               \
	MOVQ b+24(FP), DX               \
	MOVQ cnt+32(FP), CX             \
	MOVQ stride+40(FP), R11         \
	MOVQ R11, R8                    \
	SHRQ $6, R8                     \
linstr:                                 \
	MOVL (DI), R12                  \
	IMULQ R11, R12                  \
	ADDQ R10, R12                   \
	MOVL (SI), R13                  \
	IMULQ R11, R13                  \
	ADDQ R10, R13                   \
	MOVL (DX), R14                  \
	IMULQ R11, R14                  \
	ADDQ R10, R14                   \
	MOVQ R8, R9                     \
llane:                                  \
	VMOVDQU (R13), Y0               \
	VMOVDQU 32(R13), Y2             \
	VMOVDQU (R14), Y1               \
	VMOVDQU 32(R14), Y3             \
	CMP     SRCA, SRCB, Y4          \
	CMP     SRCA2, SRCB2, Y5        \
	VPSRLQ  $63, Y4, Y4             \
	VPSRLQ  $63, Y5, Y5             \
	VMOVDQU Y4, (R12)               \
	VMOVDQU Y5, 32(R12)             \
	ADDQ    $64, R13                \
	ADDQ    $64, R14                \
	ADDQ    $64, R12                \
	DECQ    R9                      \
	JNZ     llane                   \
	ADDQ $4, DI                     \
	ADDQ $4, SI                     \
	ADDQ $4, DX                     \
	DECQ CX                         \
	JNZ  linstr                     \
	VZEROUPPER                      \
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	// ECX bit 27: OSXSAVE, bit 28: AVX.
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  no
	// XCR0 bits 1+2: OS saves xmm and ymm state.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	// CPUID leaf 7 EBX bit 5: AVX2.
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func vecAdd(dst, a, b *Word, n int)
TEXT ·vecAdd(SB), NOSPLIT, $0-32
	BINOP(VPADDQ, addloop, addtail, adddone)

// func vecSub(dst, a, b *Word, n int)
TEXT ·vecSub(SB), NOSPLIT, $0-32
	BINOP(VPSUBQ, subloop, subtail, subdone) // Y0 = a - b

// func vecAnd(dst, a, b *Word, n int)
TEXT ·vecAnd(SB), NOSPLIT, $0-32
	BINOP(VPAND, andloop, andtail, anddone)

// func vecOr(dst, a, b *Word, n int)
TEXT ·vecOr(SB), NOSPLIT, $0-32
	BINOP(VPOR, orloop, ortail, ordone)

// func vecXor(dst, a, b *Word, n int)
TEXT ·vecXor(SB), NOSPLIT, $0-32
	BINOP(VPXOR, xorloop, xortail, xordone)

// func vecNot(dst, a *Word, n int)
TEXT ·vecNot(SB), NOSPLIT, $0-24
	MOVQ     dst+0(FP), DI
	MOVQ     a+8(FP), SI
	MOVQ     n+16(FP), CX
	SHRQ     $2, CX
	VPCMPEQD Y15, Y15, Y15 // all ones

notloop:
	VMOVDQU (SI), Y0
	VPXOR   Y15, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     notloop
	VZEROUPPER
	RET

// func vecEq(dst, a, b *Word, n int)
TEXT ·vecEq(SB), NOSPLIT, $0-32
	CMPOP(VPCMPEQQ, Y1, Y0, Y3, Y2, eqloop, eqtail, eqdone)

// func vecLt(dst, a, b *Word, n int)
//
// Signed a < b is b > a: VPCMPGTQ with b as first comparand (this
// assembler's operand order is src2, src1, dst with dst = src1 > src2).
TEXT ·vecLt(SB), NOSPLIT, $0-32
	CMPOP(VPCMPGTQ, Y0, Y1, Y2, Y3, ltloop, lttail, ltdone)

// func vecMux(dst, a, b, c *Word, n int)
//
// dst = c != 0 ? a : b, per lane. The c==0 compare produces an
// all-ones/all-zero 64-bit lane mask, so VPBLENDVB (which keys on each
// byte's high bit) selects whole lanes: b where c == 0, a elsewhere.
TEXT ·vecMux(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  c+24(FP), R8
	MOVQ  n+32(FP), CX
	SHRQ  $2, CX
	MOVQ  CX, R9
	SHRQ  $1, CX
	VPXOR Y15, Y15, Y15 // zero
	JZ    muxtail

muxloop:
	VMOVDQU   (R8), Y4
	VMOVDQU   32(R8), Y5
	VPCMPEQQ  Y15, Y4, Y4 // all-ones where c == 0
	VPCMPEQQ  Y15, Y5, Y5
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y2
	VMOVDQU   (DX), Y1
	VMOVDQU   32(DX), Y3
	VPBLENDVB Y4, Y1, Y0, Y0 // b where mask, else a
	VPBLENDVB Y5, Y3, Y2, Y2
	VMOVDQU   Y0, (DI)
	VMOVDQU   Y2, 32(DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, R8
	ADDQ      $64, DI
	DECQ      CX
	JNZ       muxloop

muxtail:
	ANDQ $1, R9
	JZ   muxdone
	VMOVDQU   (R8), Y4
	VPCMPEQQ  Y15, Y4, Y4
	VMOVDQU   (SI), Y0
	VMOVDQU   (DX), Y1
	VPBLENDVB Y4, Y1, Y0, Y0
	VMOVDQU   Y0, (DI)

muxdone:
	VZEROUPPER
	RET

// func vecAddN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecAddN(SB), NOSPLIT, $0-48
	BINOPN(VPADDQ, addninstr, addnlane)

// func vecSubN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecSubN(SB), NOSPLIT, $0-48
	BINOPN(VPSUBQ, subninstr, subnlane)

// func vecAndN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecAndN(SB), NOSPLIT, $0-48
	BINOPN(VPAND, andninstr, andnlane)

// func vecOrN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecOrN(SB), NOSPLIT, $0-48
	BINOPN(VPOR, orninstr, ornlane)

// func vecXorN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecXorN(SB), NOSPLIT, $0-48
	BINOPN(VPXOR, xorninstr, xornlane)

// func vecNotN(vals *Word, dst, a *int32, cnt, stride int)
TEXT ·vecNotN(SB), NOSPLIT, $0-40
	MOVQ     vals+0(FP), R10
	MOVQ     dst+8(FP), DI
	MOVQ     a+16(FP), SI
	MOVQ     cnt+24(FP), CX
	MOVQ     stride+32(FP), R11
	MOVQ     R11, R8
	SHRQ     $6, R8
	VPCMPEQD Y15, Y15, Y15 // all ones

notninstr:
	MOVL  (DI), R12
	IMULQ R11, R12
	ADDQ  R10, R12
	MOVL  (SI), R13
	IMULQ R11, R13
	ADDQ  R10, R13
	MOVQ  R8, R9

notnlane:
	VMOVDQU (R13), Y0
	VMOVDQU 32(R13), Y2
	VPXOR   Y15, Y0, Y0
	VPXOR   Y15, Y2, Y2
	VMOVDQU Y0, (R12)
	VMOVDQU Y2, 32(R12)
	ADDQ    $64, R13
	ADDQ    $64, R12
	DECQ    R9
	JNZ     notnlane
	ADDQ    $4, DI
	ADDQ    $4, SI
	DECQ    CX
	JNZ     notninstr
	VZEROUPPER
	RET

// func vecEqN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecEqN(SB), NOSPLIT, $0-48
	CMPOPN(VPCMPEQQ, Y1, Y0, Y3, Y2, eqninstr, eqnlane)

// func vecLtN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecLtN(SB), NOSPLIT, $0-48
	CMPOPN(VPCMPGTQ, Y0, Y1, Y2, Y3, ltninstr, ltnlane)

// func vecMuxN(vals *Word, dst, a, b, c *int32, cnt, stride int)
//
// dst = c != 0 ? a : b, per lane, per instruction.
TEXT ·vecMuxN(SB), NOSPLIT, $0-56
	MOVQ  vals+0(FP), R10
	MOVQ  dst+8(FP), DI
	MOVQ  a+16(FP), SI
	MOVQ  b+24(FP), DX
	MOVQ  c+32(FP), BX
	MOVQ  cnt+40(FP), CX
	MOVQ  stride+48(FP), R11
	MOVQ  R11, R8
	SHRQ  $6, R8
	VPXOR Y15, Y15, Y15 // zero

muxninstr:
	MOVL  (DI), R12
	IMULQ R11, R12
	ADDQ  R10, R12
	MOVL  (SI), R13
	IMULQ R11, R13
	ADDQ  R10, R13
	MOVL  (DX), R14
	IMULQ R11, R14
	ADDQ  R10, R14
	MOVL  (BX), AX
	IMULQ R11, AX
	ADDQ  R10, AX
	MOVQ  R8, R9

muxnlane:
	VMOVDQU   (AX), Y4
	VMOVDQU   32(AX), Y5
	VPCMPEQQ  Y15, Y4, Y4 // all-ones where c == 0
	VPCMPEQQ  Y15, Y5, Y5
	VMOVDQU   (R13), Y0
	VMOVDQU   32(R13), Y2
	VMOVDQU   (R14), Y1
	VMOVDQU   32(R14), Y3
	VPBLENDVB Y4, Y1, Y0, Y0 // b where mask, else a
	VPBLENDVB Y5, Y3, Y2, Y2
	VMOVDQU   Y0, (R12)
	VMOVDQU   Y2, 32(R12)
	ADDQ      $64, R13
	ADDQ      $64, R14
	ADDQ      $64, AX
	ADDQ      $64, R12
	DECQ      R9
	JNZ       muxnlane
	ADDQ $4, DI
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  muxninstr
	VZEROUPPER
	RET

// func vecCasN(vals *Word, dst, dst2, a, b, c *int32, cnt, stride int)
//
// Compare-exchange, per lane, per instruction: dst = c != 0 ? a : b and
// dst2 = c != 0 ? b : a. One zero-compare of c feeds two blends, so a
// fused pair loads c, a and b once and stores both outputs. With five
// slot arrays and five lane bases there is no register left for vals,
// so the bases add it from the argument slot; the lane loop walks one
// byte offset (R9) shared by all five bases.
TEXT ·vecCasN(SB), NOSPLIT, $0-64
	MOVQ  dst+8(FP), DI
	MOVQ  dst2+16(FP), R8
	MOVQ  a+24(FP), SI
	MOVQ  b+32(FP), DX
	MOVQ  c+40(FP), BX
	MOVQ  cnt+48(FP), CX
	MOVQ  stride+56(FP), R11
	VPXOR Y15, Y15, Y15 // zero

casninstr:
	MOVL  (DI), R12
	IMULQ R11, R12
	ADDQ  vals+0(FP), R12
	MOVL  (R8), R10
	IMULQ R11, R10
	ADDQ  vals+0(FP), R10
	MOVL  (SI), R13
	IMULQ R11, R13
	ADDQ  vals+0(FP), R13
	MOVL  (DX), R14
	IMULQ R11, R14
	ADDQ  vals+0(FP), R14
	MOVL  (BX), AX
	IMULQ R11, AX
	ADDQ  vals+0(FP), AX
	XORQ  R9, R9

casnlane:
	VMOVDQU   (AX)(R9*1), Y4
	VMOVDQU   32(AX)(R9*1), Y5
	VPCMPEQQ  Y15, Y4, Y4 // all-ones where c == 0
	VPCMPEQQ  Y15, Y5, Y5
	VMOVDQU   (R13)(R9*1), Y0
	VMOVDQU   32(R13)(R9*1), Y2
	VMOVDQU   (R14)(R9*1), Y1
	VMOVDQU   32(R14)(R9*1), Y3
	VPBLENDVB Y4, Y1, Y0, Y6 // dst: b where mask, else a
	VPBLENDVB Y4, Y0, Y1, Y7 // dst2: a where mask, else b
	VPBLENDVB Y5, Y3, Y2, Y8
	VPBLENDVB Y5, Y2, Y3, Y9
	VMOVDQU   Y6, (R12)(R9*1)
	VMOVDQU   Y8, 32(R12)(R9*1)
	VMOVDQU   Y7, (R10)(R9*1)
	VMOVDQU   Y9, 32(R10)(R9*1)
	ADDQ      $64, R9
	CMPQ      R9, R11
	JB        casnlane
	ADDQ $4, DI
	ADDQ $4, R8
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  casninstr
	VZEROUPPER
	RET
