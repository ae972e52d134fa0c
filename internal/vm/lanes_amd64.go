//go:build amd64

package vm

// AVX2 lane kernels. Each wrapper runs the vector body over the
// largest multiple-of-4 prefix (4 int64 lanes per ymm register) and
// finishes the tail with the scalar loop; on CPUs without AVX2 the
// whole call falls through to scalar. The speedup is the whole point
// of batching on one core: the Go compiler does not auto-vectorize, so
// without these kernels the lock-step inner loop runs at scalar
// throughput and the batch evaluator cannot pull far ahead of the
// interpreter.
//
// Detection is done once at package init: AVX2 requires the cpuid
// feature bit, the AVX bit, and OS support for saving ymm state
// (OSXSAVE + XCR0), all checked in assembly.

var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU and OS support AVX2 execution.
func cpuHasAVX2() bool

//go:noescape
func vecAdd(dst, a, b *Word, n int)

//go:noescape
func vecSub(dst, a, b *Word, n int)

//go:noescape
func vecAnd(dst, a, b *Word, n int)

//go:noescape
func vecOr(dst, a, b *Word, n int)

//go:noescape
func vecXor(dst, a, b *Word, n int)

//go:noescape
func vecNot(dst, a *Word, n int)

//go:noescape
func vecEq(dst, a, b *Word, n int)

//go:noescape
func vecLt(dst, a, b *Word, n int)

//go:noescape
func vecMux(dst, a, b, c *Word, n int)

// Batch kernels: one call per same-op instruction run. Each loops the
// run's slot-index arrays natively, resolving lane bases with one
// multiply per operand, so the per-instruction cost is a few cycles of
// address arithmetic instead of a Go call with slice bounds checks.
// stride is the lane stride in bytes (S*8, S a multiple of 8).

//go:noescape
func vecAddN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecSubN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecAndN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecOrN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecXorN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecNotN(vals *Word, dst, a *int32, cnt, stride int)

//go:noescape
func vecEqN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecLtN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecMuxN(vals *Word, dst, a, b, c *int32, cnt, stride int)

// vecCasN runs a compare-exchange run: per lane, dst = c != 0 ? a : b
// and dst2 = c != 0 ? b : a, from one zero-compare and two blends.
//
//go:noescape
func vecCasN(vals *Word, dst, dst2, a, b, c *int32, cnt, stride int)

// execRun dispatches one same-op run to its batch kernel when the CPU
// has AVX2 and the lane stride is vector-clean; multiply and modulus
// (no 64-bit AVX2 forms) and all other cases fall back per instruction.
func (p *Program) execRun(vals []Word, S int, op uint8, lo, hi int) {
	if !useAVX2 || S&7 != 0 {
		p.execSlow(vals, S, op, lo, hi)
		return
	}
	cnt := hi - lo
	stride := S * 8
	switch op {
	case opAdd:
		vecAddN(&vals[0], &p.dst[lo], &p.a[lo], &p.b[lo], cnt, stride)
	case opSub:
		vecSubN(&vals[0], &p.dst[lo], &p.a[lo], &p.b[lo], cnt, stride)
	case opAnd:
		vecAndN(&vals[0], &p.dst[lo], &p.a[lo], &p.b[lo], cnt, stride)
	case opOr:
		vecOrN(&vals[0], &p.dst[lo], &p.a[lo], &p.b[lo], cnt, stride)
	case opXor:
		vecXorN(&vals[0], &p.dst[lo], &p.a[lo], &p.b[lo], cnt, stride)
	case opNot:
		vecNotN(&vals[0], &p.dst[lo], &p.a[lo], cnt, stride)
	case opEq:
		vecEqN(&vals[0], &p.dst[lo], &p.a[lo], &p.b[lo], cnt, stride)
	case opLt:
		vecLtN(&vals[0], &p.dst[lo], &p.a[lo], &p.b[lo], cnt, stride)
	case opMux:
		vecMuxN(&vals[0], &p.dst[lo], &p.a[lo], &p.b[lo], &p.c[lo], cnt, stride)
	case opCas:
		vecCasN(&vals[0], &p.dst[lo], &p.dst2[lo], &p.a[lo], &p.b[lo], &p.c[lo], cnt, stride)
	default:
		p.execSlow(vals, S, op, lo, hi)
	}
}

func laneAdd(d, a, b []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecAdd(&d[0], &a[0], &b[0], n)
		d, a, b = d[n:], a[n:], b[n:]
	}
	scalarAdd(d, a, b)
}

func laneSub(d, a, b []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecSub(&d[0], &a[0], &b[0], n)
		d, a, b = d[n:], a[n:], b[n:]
	}
	scalarSub(d, a, b)
}

func laneAnd(d, a, b []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecAnd(&d[0], &a[0], &b[0], n)
		d, a, b = d[n:], a[n:], b[n:]
	}
	scalarAnd(d, a, b)
}

func laneOr(d, a, b []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecOr(&d[0], &a[0], &b[0], n)
		d, a, b = d[n:], a[n:], b[n:]
	}
	scalarOr(d, a, b)
}

func laneXor(d, a, b []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecXor(&d[0], &a[0], &b[0], n)
		d, a, b = d[n:], a[n:], b[n:]
	}
	scalarXor(d, a, b)
}

func laneNot(d, a []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecNot(&d[0], &a[0], n)
		d, a = d[n:], a[n:]
	}
	scalarNot(d, a)
}

func laneEq(d, a, b []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecEq(&d[0], &a[0], &b[0], n)
		d, a, b = d[n:], a[n:], b[n:]
	}
	scalarEq(d, a, b)
}

func laneLt(d, a, b []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecLt(&d[0], &a[0], &b[0], n)
		d, a, b = d[n:], a[n:], b[n:]
	}
	scalarLt(d, a, b)
}

func laneMux(d, a, b, cw []Word) {
	if n := len(d) &^ 3; useAVX2 && n > 0 {
		vecMux(&d[0], &a[0], &b[0], &cw[0], n)
		d, a, b, cw = d[n:], a[n:], b[n:], cw[n:]
	}
	scalarMux(d, a, b, cw)
}
