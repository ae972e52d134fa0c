//go:build !amd64

package vm

// Portable lane kernels: straight aliases for the scalar loops. The
// amd64 build replaces these with AVX2 vector kernels when the CPU
// supports them (see lanes_amd64.go).

// useAVX2 is always false here; it exists so tests can pin the scalar
// paths on every platform.
var useAVX2 = false

func laneAdd(d, a, b []Word) { scalarAdd(d, a, b) }
func laneSub(d, a, b []Word) { scalarSub(d, a, b) }
func laneAnd(d, a, b []Word) { scalarAnd(d, a, b) }
func laneOr(d, a, b []Word)  { scalarOr(d, a, b) }
func laneXor(d, a, b []Word) { scalarXor(d, a, b) }
func laneNot(d, a []Word)    { scalarNot(d, a) }
func laneEq(d, a, b []Word)  { scalarEq(d, a, b) }
func laneLt(d, a, b []Word)  { scalarLt(d, a, b) }

func laneMux(d, a, b, cw []Word) { scalarMux(d, a, b, cw) }

// execRun on non-amd64 always takes the per-instruction path.
func (p *Program) execRun(vals []Word, S int, op uint8, lo, hi int) {
	p.execSlow(vals, S, op, lo, hi)
}
