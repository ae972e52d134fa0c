// Package vm is the vectorized batch evaluator for word circuits: a
// compiler from boolcircuit gate DAGs into a flat structure-of-arrays
// instruction buffer, and an evaluator that runs B requests through the
// program in lock-step, level by level.
//
// The paper's circuits are data independent — the gate sequence never
// depends on tuple values — so the per-gate decode work (operand
// lookup, opcode dispatch, bounds checks) is identical for every
// request and can be paid once per gate instead of once per gate per
// request. The compiler drops gates unreachable from the outputs, lays
// the live instructions out contiguously in level order (opcode and
// operand slot indices in parallel arrays, no Gate structs, no
// interface dispatch), and register-allocates wire values into reusable
// slots so the evaluator's arena slab (vals[slot*S+r] for lane stride
// S, all lanes of one value adjacent) is sized by the maximum live
// width of the circuit, not its total size — the working set stays
// cache-resident where the interpreter streams the whole circuit.
// Comparison and mux gates are computed arithmetically per lane,
// keeping even the batched evaluation oblivious: the instruction and
// memory-access sequence is a function of the program alone.
//
// The compiler also fuses each compare-exchange — the Batcher
// comparator of the paper's ordering operator τ, one condition feeding
// Mux(c,x,y) and Mux(c,y,x) — into a single opCas instruction that
// reads its operands once and writes both outputs. A lone request runs
// at stride 1 through a scalar executor; batches run at a stride padded
// to a multiple of 8 through the vector kernels.
//
// Levels matter for two reasons: gates within one level are
// independent, so a wide level × batch product can optionally be split
// across workers (Brent's schedule, lock-step per level); and the
// level structure is what makes the bounded circuit classes of the
// paper amenable to this style of evaluation at all.
package vm

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
)

// Word is the value carried by one wire for one request: the 64-bit
// word of the Section 4.1 model.
type Word = int64

// vm opcodes: the compute subset of boolcircuit ops (inputs and
// constants are prefilled, not executed), plus opCas, the fused
// compare-exchange: dst = c ? a : b and dst2 = c ? b : a, two word
// gates in one instruction.
const (
	opAdd uint8 = iota
	opSub
	opMul
	opMod
	opAnd
	opOr
	opXor
	opNot
	opEq
	opLt
	opMux
	opCas

	numOps = int(opCas) + 1
)

// opFused marks the second mux of a fused compare-exchange pair while a
// level is rewritten; no such instruction survives Compile.
const opFused = uint8(numOps)

// gateWeight is the number of word gates one instruction of op stands
// for: budgets and fault sites count word gates, not fused slots.
func gateWeight(op uint8) int {
	if op == opCas {
		return 2
	}
	return 1
}

// pollStep is how many instructions run between context checkpoints on
// the serial path, across level boundaries. A poll of a serving
// context (cancel, deadline and value layers) costs ~25ns, a few
// hundred nanoseconds of stride-1 work at this step; finer polling
// would show in the single-request time, coarser would make deadlines
// sloppy.
const pollStep = 128

// parallelMinWork is the instructions×lanes product below which a level
// runs inline: goroutine fan-out costs more than it saves on small
// level-batch products.
const parallelMinWork = 1 << 15

type constInit struct {
	slot int32
	k    Word
}

// Program is a compiled word circuit in executable form: one
// structure-of-arrays instruction buffer (ops/dst/dst2/a/b/c in
// parallel, contiguous per level; dst2 is opCas's second output and -1
// elsewhere), the constant and input prefill templates, and
// an arena pool for wire-value slabs. A Program is immutable after
// Compile and safe for concurrent EvalBatch calls.
//
// Operands are SLOTS, not circuit wire ids: the compiler drops gates
// unreachable from any output, then runs a liveness pass that reuses a
// wire's value slot once its last reader's level has run. The slab is
// therefore sized by the maximum number of simultaneously live wires,
// not the circuit size — the difference between a cache-resident
// working set and streaming the whole circuit through memory once per
// instruction. Slots are recycled only at level boundaries, so the
// per-level parallel executor stays race-free: a slot freed by level
// L's readers is reused no earlier than level L+1.
type Program struct {
	ops       []uint8
	dst, dst2 []int32
	a, b, c   []int32
	levelEnd  []int32 // ops[levelEnd[l-1]:levelEnd[l]] is level l+1

	numGates  int // circuit size (|V|), for reporting
	wordGates int // live compute gates; an opCas counts as two
	numSlots  int // slab width: max simultaneously live wires

	inputSlots []int32 // slot per circuit input, -1 when the input is dead
	outSlots   []int32
	consts     []constInit

	slabs sync.Pool // *[]Word arenas, reused across evaluations
}

// Compile lowers a finished boolcircuit into a Program. The gate walk
// polls ctx and charges the circuit's size against any guard.Budget the
// context carries.
//
// Three passes: (1) mark gates reachable from the outputs — the
// interpreter pays for every gate ever built, the vm does not; (2)
// bucket live compute gates by depth level, laid out contiguously in
// ascending id per level so operands always resolve to earlier levels;
// (3) assign value slots by liveness, freeing a wire's slot at the
// level boundary after its last reader, then fuse each level's
// compare-exchange mux pairs into opCas.
func Compile(ctx context.Context, c *boolcircuit.Circuit) (*Program, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: vm: nil circuit", guard.ErrInvalidInput)
	}
	n := c.Size()
	if err := guard.FromContext(ctx).CheckGates(ctx, n); err != nil {
		return nil, err
	}
	depth := c.Depth()

	// Pass 1: reachability. Operand ids are always below the gate's own
	// id (the builder is append-only), so one reverse sweep suffices.
	reach := make([]bool, n)
	for _, id := range c.Outputs() {
		reach[id] = true
	}
	for i := n - 1; i >= 0; i-- {
		if i&0xfff == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, err
			}
		}
		if !reach[i] {
			continue
		}
		g := c.GateAt(i)
		for _, op := range [3]int32{g.A, g.B, g.C} {
			if op >= 0 {
				reach[op] = true
			}
		}
	}

	// Pass 2: level bucketing of live compute gates, and last-use levels
	// for the liveness pass. lastLevel[w] is the deepest level reading
	// wire w; outputs are pinned past every level so the final transpose
	// can read them.
	counts := make([]int32, depth+1)
	total := 0
	lastLevel := make([]int32, n)
	for i := 0; i < n; i++ {
		if i&0xfff == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, err
			}
		}
		if !reach[i] {
			continue
		}
		g := c.GateAt(i)
		if g.Op == boolcircuit.OpInput || g.Op == boolcircuit.OpConst {
			continue
		}
		d := int32(c.DepthOf(i))
		counts[d]++
		total++
		for _, op := range [3]int32{g.A, g.B, g.C} {
			if op >= 0 && lastLevel[op] < d {
				lastLevel[op] = d
			}
		}
	}
	pinned := int32(depth + 1)
	for _, id := range c.Outputs() {
		lastLevel[id] = pinned
	}

	p := &Program{
		ops:       make([]uint8, 0, total),
		dst:       make([]int32, 0, total),
		dst2:      make([]int32, 0, total),
		a:         make([]int32, 0, total),
		b:         make([]int32, 0, total),
		c:         make([]int32, 0, total),
		numGates:  n,
		wordGates: total,
	}
	// Bucket live compute gates by level (ascending id within a level,
	// since ids are visited in order). Gate ids are NOT monotone in depth
	// — a later-built gate can sit at a shallower level — so slot
	// recycling must run in level order, not id order.
	levelGates := make([][]int32, depth+1)
	for d := 1; d <= depth; d++ {
		levelGates[d] = make([]int32, 0, counts[d])
	}
	for i := 0; i < n; i++ {
		if !reach[i] {
			continue
		}
		g := c.GateAt(i)
		if g.Op == boolcircuit.OpInput || g.Op == boolcircuit.OpConst {
			continue
		}
		levelGates[c.DepthOf(i)] = append(levelGates[c.DepthOf(i)], int32(i))
	}

	// Pass 3: place instructions level by level and assign slots.
	// expire[L] lists slots whose wire was last read at level L-1 or
	// earlier; they rejoin the free list when level L begins, which the
	// level-by-level executors (serial and parallel alike) make safe: a
	// slot freed by level L-1's readers is rewritten no earlier than
	// level L, after the barrier.
	slotOf := make([]int32, n)
	expire := make([][]int32, depth+2)
	var free []int32
	var next int32
	alloc := func(w int32) int32 {
		var s int32
		if len(free) > 0 {
			s = free[len(free)-1]
			free = free[:len(free)-1]
		} else {
			s = next
			next++
		}
		slotOf[w] = s
		if lu := lastLevel[w]; lu <= int32(depth) {
			expire[lu+1] = append(expire[lu+1], s)
		}
		return s
	}

	// Level 0: inputs and constants. Every input keeps its positional
	// place in the request vector; a dead input gets slot -1 (validated
	// but never stored). Dead constants vanish entirely.
	for _, id := range c.InputIDs() {
		if !reach[id] {
			p.inputSlots = append(p.inputSlots, -1)
			continue
		}
		p.inputSlots = append(p.inputSlots, alloc(int32(id)))
	}
	for i := 0; i < n; i++ {
		g := c.GateAt(i)
		if g.Op == boolcircuit.OpConst && reach[i] {
			p.consts = append(p.consts, constInit{slot: alloc(int32(i)), k: g.K})
		}
	}

	placed := 0
	var staging Program
	for d := 1; d <= depth; d++ {
		free = append(free, expire[d]...)
		levStart := len(p.ops)
		for _, i32 := range levelGates[d] {
			if placed&0xfff == 0 {
				if err := guard.Poll(ctx); err != nil {
					return nil, err
				}
			}
			placed++
			g := c.GateAt(int(i32))
			var op uint8
			switch g.Op {
			case boolcircuit.OpAdd:
				op = opAdd
			case boolcircuit.OpSub:
				op = opSub
			case boolcircuit.OpMul:
				op = opMul
			case boolcircuit.OpMod:
				op = opMod
			case boolcircuit.OpAnd:
				op = opAnd
			case boolcircuit.OpOr:
				op = opOr
			case boolcircuit.OpXor:
				op = opXor
			case boolcircuit.OpNot:
				op = opNot
			case boolcircuit.OpEq:
				op = opEq
			case boolcircuit.OpLt:
				op = opLt
			case boolcircuit.OpMux:
				op = opMux
			default:
				return nil, fmt.Errorf("%w: vm: unsupported op %v at gate %d", guard.ErrInvalidInput, g.Op, i32)
			}
			p.ops = append(p.ops, op)
			// Operand slots resolve BEFORE the dst allocation: a dst may
			// legally reuse a slot freed at this very boundary, but never
			// one of its own operands' (those are live through this level
			// by definition of lastLevel).
			p.a = append(p.a, slotOf[g.A])
			if g.B >= 0 {
				p.b = append(p.b, slotOf[g.B])
			} else {
				p.b = append(p.b, -1)
			}
			if g.C >= 0 {
				p.c = append(p.c, slotOf[g.C])
			} else {
				p.c = append(p.c, -1)
			}
			p.dst = append(p.dst, alloc(i32))
			p.dst2 = append(p.dst2, -1)
		}
		p.fuseCompareExchange(levStart)
		p.sortLevelByOp(levStart, &staging)
		p.levelEnd = append(p.levelEnd, int32(len(p.ops)))
	}
	for _, id := range c.Outputs() {
		p.outSlots = append(p.outSlots, slotOf[id])
	}
	p.numSlots = int(next)
	return p, nil
}

// fuseCompareExchange marks, in the level occupying [lo, len(p.ops)),
// every pair of muxes with one condition and swapped data operands:
// the first becomes an opCas carrying the second's destination in
// dst2, the second becomes opFused for sortLevelByOp to drop. Both
// muxes read the same operands, so the pair always lands in one level.
//
// The sort network builds a comparator's two muxes back to back, and
// placement keeps ascending gate id within a level, so a comparator's
// pair is two adjacent muxes of the level and one linear scan finds
// it. A pair built apart is left as two muxes, which is still exact.
func (p *Program) fuseCompareExchange(lo int) {
	prev := -1
	for i := lo; i < len(p.ops); i++ {
		if p.ops[i] != opMux {
			continue
		}
		if j := prev; j >= 0 && p.c[j] == p.c[i] && p.a[j] == p.b[i] && p.b[j] == p.a[i] {
			p.ops[j], p.dst2[j], p.ops[i] = opCas, p.dst[i], opFused
			prev = -1
		} else {
			prev = i
		}
	}
}

// sortLevelByOp counting-sorts the level occupying [lo, len(p.ops)) by
// opcode and drops the opFused halves of compare-exchange pairs.
// Instructions within a level are independent (their operands all come
// from earlier levels), so any order is legal; opcode runs let the
// executor dispatch once per run instead of once per instruction, and
// hand each run to a batch kernel in one call. tmp is staging space
// reused across levels.
func (p *Program) sortLevelByOp(lo int, tmp *Program) {
	hi := len(p.ops)
	if hi-lo < 2 {
		return
	}
	var count [numOps + 1]int32
	for i := lo; i < hi; i++ {
		count[p.ops[i]]++
	}
	var cur [numOps]int32
	var acc int32
	for op := range cur {
		cur[op] = acc
		acc += count[op]
	}
	n := int(acc)
	grow := func(s []int32) []int32 { return slices.Grow(s[:0], n)[:n] }
	ops := slices.Grow(tmp.ops[:0], n)[:n]
	dst, dst2 := grow(tmp.dst), grow(tmp.dst2)
	a, b, c := grow(tmp.a), grow(tmp.b), grow(tmp.c)
	for i := lo; i < hi; i++ {
		op := p.ops[i]
		if op == opFused {
			continue
		}
		j := cur[op]
		cur[op]++
		ops[j] = op
		dst[j] = p.dst[i]
		dst2[j] = p.dst2[i]
		a[j] = p.a[i]
		b[j] = p.b[i]
		c[j] = p.c[i]
	}
	p.ops = append(p.ops[:lo], ops...)
	p.dst = append(p.dst[:lo], dst...)
	p.dst2 = append(p.dst2[:lo], dst2...)
	p.a = append(p.a[:lo], a...)
	p.b = append(p.b[:lo], b...)
	p.c = append(p.c[:lo], c...)
	tmp.ops, tmp.dst, tmp.dst2, tmp.a, tmp.b, tmp.c = ops, dst, dst2, a, b, c
}

// Gates returns the total wire count of the source circuit (|V|,
// including inputs, constants, and gates the compiler dropped as dead).
func (p *Program) Gates() int { return p.numGates }

// Slots returns the slab width per lane: the maximum number of
// simultaneously live wires after the liveness pass.
func (p *Program) Slots() int { return p.numSlots }

// Instructions returns the number of word-gate instructions executed
// per lane (live gates minus inputs and constants). A fused
// compare-exchange counts as the two mux gates it replaces, so the
// figure is independent of fusion.
func (p *Program) Instructions() int { return p.wordGates }

// Levels returns the number of instruction levels (the circuit depth).
func (p *Program) Levels() int { return len(p.levelEnd) }

// NumInputs returns the per-request input width.
func (p *Program) NumInputs() int { return len(p.inputSlots) }

// NumOutputs returns the per-request output width.
func (p *Program) NumOutputs() int { return len(p.outSlots) }

// Options tunes one EvalBatch call.
type Options struct {
	// Workers is the goroutine count for per-level parallelism: a level
	// whose instructions×lanes product clears an internal threshold is
	// split across up to this many goroutines. ≤ 1 runs serially (the
	// default; batching already amortizes decode without threads).
	Workers int
}

// EvalBatch runs every input vector through the program in lock-step
// and returns one output vector per request, positionally. An empty
// batch returns an empty result. Each inputs[r] must have exactly
// NumInputs values.
//
// The instruction loop polls ctx every pollStep instructions, across
// level boundaries, so cancellation and deadlines cut the evaluation
// short even inside one wide level. Any guard.Budget on ctx (MaxGates)
// is charged in word gates — an opCas weighs two — and trips exactly
// at its first gate over the cap. When ctx carries a
// faultinject.Injector, each word gate reports to the word-gate site
// (the slow path; the fast path pays nothing). The whole batch runs
// under one obs vm-eval span carrying gates and batch_size counters —
// one span per batch, never per request.
func (p *Program) EvalBatch(ctx context.Context, inputs [][]Word) ([][]Word, error) {
	return p.EvalBatchOpts(ctx, inputs, Options{})
}

// EvalBatchOpts is EvalBatch with explicit options.
func (p *Program) EvalBatchOpts(ctx context.Context, inputs [][]Word, opts Options) (_ [][]Word, err error) {
	B := len(inputs)
	ctx, sp := obs.StartSpan(ctx, obs.StageVMEval)
	defer func() {
		sp.AddInt(obs.CounterGates, int64(p.numGates))
		sp.AddInt(obs.CounterBatchSize, int64(B))
		sp.SetError(err)
		sp.End()
	}()
	if err := guard.Poll(ctx); err != nil {
		return nil, err
	}
	if B == 0 {
		return [][]Word{}, nil
	}
	for r, in := range inputs {
		if len(in) != len(p.inputSlots) {
			return nil, fmt.Errorf("%w: vm: request %d has %d inputs, want %d",
				guard.ErrInvalidInput, r, len(in), len(p.inputSlots))
		}
	}

	// Lane stride: a lone request runs at stride 1 through the scalar
	// executor, so its slab is numSlots words. A batch pads the stride
	// to a multiple of 8 so the vector kernels never need tail code;
	// padding lanes carry garbage through every (total) operation and
	// are never read back.
	S := 1
	if B > 1 {
		S = (B + 7) &^ 7
	}
	vals := p.getSlab(p.numSlots * S)
	defer p.putSlab(vals)

	// Prefill: constants splat across lanes, inputs transpose from
	// request-major to slot-major (padding lanes zeroed — the slab is
	// pooled, so they would otherwise carry stale values into the mod
	// paths of a *previous* batch's shape). Dead inputs (slot -1) are
	// validated above but never stored.
	for _, ci := range p.consts {
		lane := vals[int(ci.slot)*S:][:S]
		for l := range lane {
			lane[l] = ci.k
		}
	}
	for idx, s := range p.inputSlots {
		if s < 0 {
			continue
		}
		lane := vals[int(s)*S:][:S]
		for r := 0; r < B; r++ {
			lane[r] = inputs[r][idx]
		}
		for r := B; r < S; r++ {
			lane[r] = 0
		}
	}

	inj := faultinject.FromContext(ctx)
	bud := guard.FromContext(ctx)
	limit := p.budgetLimit(bud)
	workers := opts.Workers

	gate := 0     // word gates reported to inj so far
	nextPoll := 0 // instruction index of the next context poll
	start := 0
	for _, e32 := range p.levelEnd {
		if start >= limit {
			break
		}
		end := min(int(e32), limit)
		if workers > 1 && inj == nil && (end-start)*B >= parallelMinWork {
			if err := poll(ctx, start); err != nil {
				return nil, err
			}
			p.execParallel(vals, S, start, end, workers)
			nextPoll = end + pollStep
			start = end
			continue
		}
		for s := start; s < end; {
			if s >= nextPoll {
				if err := poll(ctx, s); err != nil {
					return nil, err
				}
				nextPoll = s + pollStep
			}
			e := min(end, nextPoll)
			if inj != nil {
				if gate, err = p.execFaulty(inj, vals, S, s, e, gate); err != nil {
					return nil, err
				}
			} else {
				p.exec(vals, S, s, e)
			}
			s = e
		}
		start = end
	}
	if limit < len(p.ops) {
		over := int(bud.MaxGates) + 1
		return nil, fmt.Errorf("vm: word gate %d: %w", over, bud.CheckGates(ctx, over))
	}
	if err := poll(ctx, len(p.ops)); err != nil {
		return nil, err
	}

	// Transpose outputs back to request-major before the slab returns
	// to the pool.
	ow := len(p.outSlots)
	flat := make([]Word, ow*B)
	out := make([][]Word, B)
	for r := 0; r < B; r++ {
		out[r] = flat[r*ow : (r+1)*ow : (r+1)*ow]
	}
	for oi, s := range p.outSlots {
		lane := vals[int(s)*S:][:B]
		for r := range lane {
			out[r][oi] = lane[r]
		}
	}
	return out, nil
}

// poll checks ctx between instruction chunks.
func poll(ctx context.Context, instr int) error {
	if err := guard.Poll(ctx); err != nil {
		return fmt.Errorf("vm: at instruction %d: %w", instr, err)
	}
	return nil
}

// budgetLimit returns how many instructions run before bud's gate cap
// trips: all of them when the whole program fits. The program is data
// independent, so the cut is known before the first instruction runs;
// the instructions before it still execute, exactly as a per-gate
// charge would let them.
func (p *Program) budgetLimit(bud *guard.Budget) int {
	if bud == nil || bud.MaxGates <= 0 || int64(p.wordGates) <= bud.MaxGates {
		return len(p.ops)
	}
	var g int64
	for i, op := range p.ops {
		if g += int64(gateWeight(op)); g > bud.MaxGates {
			return i
		}
	}
	return len(p.ops)
}

// getSlab returns a pooled slab of n words. Slabs are allocated with
// room for at least 8 lanes, so a stride-1 slab returned to the pool
// still serves any batch of up to 8 requests: single requests and small
// batches share the pool without reallocating.
func (p *Program) getSlab(n int) []Word {
	if v, ok := p.slabs.Get().(*[]Word); ok && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]Word, n, max(n, 8*p.numSlots))
}

func (p *Program) putSlab(s []Word) {
	p.slabs.Put(&s)
}

// execParallel splits the level's instruction range into contiguous
// chunks across workers. Instructions of one level write disjoint wires
// and read only earlier levels, so no synchronization beyond the final
// barrier is needed.
func (p *Program) execParallel(vals []Word, S, lo, hi, workers int) {
	chunk := (hi - lo + workers - 1) / workers
	var wg sync.WaitGroup
	for s := lo; s < hi; s += chunk {
		e := s + chunk
		if e > hi {
			e = hi
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			p.exec(vals, S, s, e)
		}(s, e)
	}
	wg.Wait()
}

// execFaulty is exec with per-gate fault-injection hits, so the
// engine's fault matrices see the same word-gate site the interpreted
// evaluator reports to: an opCas reports two hits. gate counts the word
// gates reported before lo; the updated count is returned.
func (p *Program) execFaulty(inj *faultinject.Injector, vals []Word, S, lo, hi, gate int) (int, error) {
	for ii := lo; ii < hi; ii++ {
		for k := gateWeight(p.ops[ii]); k > 0; k-- {
			gate++
			if err := inj.Hit(faultinject.SiteWordGate); err != nil {
				return gate, fmt.Errorf("vm: word gate %d: %w", gate, err)
			}
		}
		p.exec(vals, S, ii, ii+1)
	}
	return gate, nil
}

// exec runs instructions [lo,hi) over all S lanes. Stride 1 goes to
// the scalar executor. Otherwise levels are opcode-sorted at compile
// time, so the range decomposes into few same-op runs; each run
// dispatches once and goes to a batch kernel that loops instructions
// natively (AVX2 amd64) or to the portable per-instruction path.
func (p *Program) exec(vals []Word, S int, lo, hi int) {
	if S == 1 {
		p.exec1(vals, lo, hi)
		return
	}
	for s := lo; s < hi; {
		op := p.ops[s]
		e := s + 1
		for e < hi && p.ops[e] == op {
			e++
		}
		p.execRun(vals, S, op, s, e)
		s = e
	}
}

// exec1 runs instructions [lo,hi) for a single request at lane stride
// 1, where vals[slot] is the wire value itself: one switch per
// instruction, no lane slices and no kernel calls. Mux and the
// comparisons stay arithmetic, so there is no data-dependent branch.
func (p *Program) exec1(vals []Word, lo, hi int) {
	ops := p.ops[lo:hi]
	n := len(ops)
	dst, dst2 := p.dst[lo:hi][:n], p.dst2[lo:hi][:n]
	a, b, c := p.a[lo:hi][:n], p.b[lo:hi][:n], p.c[lo:hi][:n]
	for i, op := range ops {
		x := vals[a[i]]
		switch op {
		case opAdd:
			vals[dst[i]] = x + vals[b[i]]
		case opSub:
			vals[dst[i]] = x - vals[b[i]]
		case opMul:
			vals[dst[i]] = x * vals[b[i]]
		case opMod:
			vals[dst[i]] = modWord(x, vals[b[i]])
		case opAnd:
			vals[dst[i]] = x & vals[b[i]]
		case opOr:
			vals[dst[i]] = x | vals[b[i]]
		case opXor:
			vals[dst[i]] = x ^ vals[b[i]]
		case opNot:
			vals[dst[i]] = ^x
		case opEq:
			vals[dst[i]] = b2w(x == vals[b[i]])
		case opLt:
			vals[dst[i]] = b2w(x < vals[b[i]])
		case opMux:
			m := -b2w(vals[c[i]] != 0)
			vals[dst[i]] = (x & m) | (vals[b[i]] &^ m)
		case opCas:
			m := -b2w(vals[c[i]] != 0)
			y := vals[b[i]]
			vals[dst[i]] = (x & m) | (y &^ m)
			vals[dst2[i]] = (y & m) | (x &^ m)
		}
	}
}

// execSlow runs one same-op instruction run through the per-instruction
// lane kernels: the portable path, the fault-injection path, and the
// multiply/modulus path everywhere. Mux and the comparisons are
// computed arithmetically so the per-lane work has no data-dependent
// branches.
func (p *Program) execSlow(vals []Word, S int, op uint8, lo, hi int) {
	for ii := lo; ii < hi; ii++ {
		d := vals[int(p.dst[ii])*S:][:S:S]
		a := vals[int(p.a[ii])*S:][:S:S]
		a = a[:len(d)]
		if op == opNot {
			laneNot(d, a)
			continue
		}
		b := vals[int(p.b[ii])*S:][:S:S]
		b = b[:len(d)]
		switch op {
		case opAdd:
			laneAdd(d, a, b)
		case opSub:
			laneSub(d, a, b)
		case opMul:
			scalarMul(d, a, b)
		case opMod:
			scalarMod(d, a, b)
		case opAnd:
			laneAnd(d, a, b)
		case opOr:
			laneOr(d, a, b)
		case opXor:
			laneXor(d, a, b)
		case opEq:
			laneEq(d, a, b)
		case opLt:
			laneLt(d, a, b)
		case opMux:
			cw := vals[int(p.c[ii])*S:][:S:S]
			cw = cw[:len(d)]
			laneMux(d, a, b, cw)
		case opCas:
			cw := vals[int(p.c[ii])*S:][:S:S]
			cw = cw[:len(d)]
			d2 := vals[int(p.dst2[ii])*S:][:S:S]
			d2 = d2[:len(d)]
			laneMux(d, a, b, cw)
			laneMux(d2, b, a, cw)
		}
	}
}

// Scalar lane loops: the portable implementation of every kernel, and
// the tail path behind the amd64 vector kernels. Multiplication and
// modulus stay scalar everywhere (AVX2 has no 64-bit multiply; modulus
// needs per-lane division regardless).

func scalarAdd(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] + b[l]
	}
}

func scalarSub(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] - b[l]
	}
}

func scalarMul(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] * b[l]
	}
}

func scalarMod(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = modWord(a[l], b[l])
	}
}

// modWord is the circuit model's total modulus: non-negative for a
// nonzero divisor, 0 for a zero divisor.
func modWord(a, b Word) Word {
	if b == 0 {
		return 0
	}
	m := a % b
	if m < 0 {
		if b < 0 {
			m -= b
		} else {
			m += b
		}
	}
	return m
}

func scalarAnd(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] & b[l]
	}
}

func scalarOr(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] | b[l]
	}
}

func scalarXor(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = a[l] ^ b[l]
	}
}

func scalarNot(d, a []Word) {
	a = a[:len(d)]
	for l := range d {
		d[l] = ^a[l]
	}
}

func scalarEq(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = b2w(a[l] == b[l])
	}
}

func scalarLt(d, a, b []Word) {
	a, b = a[:len(d)], b[:len(d)]
	for l := range d {
		d[l] = b2w(a[l] < b[l])
	}
}

func scalarMux(d, a, b, cw []Word) {
	a, b, cw = a[:len(d)], b[:len(d)], cw[:len(d)]
	for l := range d {
		m := -b2w(cw[l] != 0) // 0 or all-ones
		d[l] = (a[l] & m) | (b[l] &^ m)
	}
}

func b2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}
