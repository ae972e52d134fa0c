package vm

import (
	"math"
	"math/rand"
	"testing"
)

// TestLaneKernelsMatchScalar cross-checks every lane kernel against its
// scalar loop on random and adversarial data, across lengths that
// exercise the full-vector path, the scalar tail, and the
// shorter-than-one-vector case. On amd64 with AVX2 this is the test
// that pins the assembly kernels' operand order and semantics.
func TestLaneKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	edge := []Word{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	fill := func(s []Word) {
		for i := range s {
			if rng.Intn(4) == 0 {
				s[i] = edge[rng.Intn(len(edge))]
			} else {
				s[i] = Word(rng.Uint64())
			}
		}
	}
	bin := []struct {
		name   string
		lane   func(d, a, b []Word)
		scalar func(d, a, b []Word)
	}{
		{"add", laneAdd, scalarAdd},
		{"sub", laneSub, scalarSub},
		{"and", laneAnd, scalarAnd},
		{"or", laneOr, scalarOr},
		{"xor", laneXor, scalarXor},
		{"eq", laneEq, scalarEq},
		{"lt", laneLt, scalarLt},
	}
	for _, n := range []int{1, 3, 4, 5, 7, 8, 13, 64, 100} {
		a, b, c := make([]Word, n), make([]Word, n), make([]Word, n)
		got, want := make([]Word, n), make([]Word, n)
		for trial := 0; trial < 20; trial++ {
			fill(a)
			fill(b)
			fill(c)
			// Make sure eq sees genuine equalities too.
			if n > 1 {
				b[rng.Intn(n)] = a[rng.Intn(n)]
				copy(b[:n/2], a[:n/2])
			}
			// Mux conditions: mix of zero and nonzero.
			for i := range c {
				if rng.Intn(2) == 0 {
					c[i] = 0
				}
			}
			for _, k := range bin {
				k.lane(got, a, b)
				k.scalar(want, a, b)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d %s: lane[%d]=%d, scalar=%d (a=%d b=%d)",
							n, k.name, i, got[i], want[i], a[i], b[i])
					}
				}
			}
			laneNot(got, a)
			scalarNot(want, a)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d not: lane[%d]=%d, scalar=%d (a=%d)", n, i, got[i], want[i], a[i])
				}
			}
			laneMux(got, a, b, c)
			scalarMux(want, a, b, c)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d mux: lane[%d]=%d, scalar=%d (a=%d b=%d c=%d)",
						n, i, got[i], want[i], a[i], b[i], c[i])
				}
			}
		}
	}
	t.Run("cas", checkCasRun)
}

// checkCasRun drives opCas runs through execRun — vecCasN on amd64
// with AVX2, the per-instruction path elsewhere — on adversarial lane
// values, and checks both outputs of every instruction against the
// scalar mux.
func checkCasRun(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	edge := []Word{0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 32, -(1 << 32)}
	for _, S := range []int{8, 16, 24} {
		for _, cnt := range []int{1, 2, 7} {
			// Slots 0..2cnt-1 are the outputs, 2cnt.. the operands.
			slots := 2*cnt + 3*cnt
			vals := make([]Word, slots*S)
			for i := range vals {
				switch rng.Intn(3) {
				case 0:
					vals[i] = edge[rng.Intn(len(edge))]
				case 1:
					vals[i] = 0
				default:
					vals[i] = Word(rng.Uint64())
				}
			}
			p := &Program{}
			for i := 0; i < cnt; i++ {
				p.ops = append(p.ops, opCas)
				p.dst = append(p.dst, int32(2*i))
				p.dst2 = append(p.dst2, int32(2*i+1))
				p.a = append(p.a, int32(2*cnt+3*i))
				p.b = append(p.b, int32(2*cnt+3*i+1))
				p.c = append(p.c, int32(2*cnt+3*i+2))
			}
			p.execRun(vals, S, opCas, 0, cnt)
			lane := func(s int32) []Word { return vals[int(s)*S:][:S] }
			want := make([]Word, S)
			for i := 0; i < cnt; i++ {
				a, b, c := lane(p.a[i]), lane(p.b[i]), lane(p.c[i])
				scalarMux(want, a, b, c)
				for l, got := range lane(p.dst[i]) {
					if got != want[l] {
						t.Fatalf("S=%d instr %d dst lane %d: got %d, want %d (a=%d b=%d c=%d)", S, i, l, got, want[l], a[l], b[l], c[l])
					}
				}
				scalarMux(want, b, a, c)
				for l, got := range lane(p.dst2[i]) {
					if got != want[l] {
						t.Fatalf("S=%d instr %d dst2 lane %d: got %d, want %d (a=%d b=%d c=%d)", S, i, l, got, want[l], a[l], b[l], c[l])
					}
				}
			}
		}
	}
}
