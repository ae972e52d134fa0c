package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"circuitql/internal/core"
	"circuitql/internal/engine"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/testutil"
	"circuitql/internal/workload"
)

// tuples is the rows per relation of every generated database.
const tuples = 8

// shape is one query template of a workload mix.
type shape struct {
	name string
	src  string
	q    *query.Query
	// full shapes compile to a circuit and are served by the vm tier;
	// the projected path is pinned to the RAM tier.
	full bool
	// class pins the degree bounds of the shape's generated databases
	// (see classSeeds); empty leaves them free.
	class string
}

func (s shape) tier() string {
	if s.full {
		return engine.TierVM
	}
	return engine.TierRAM
}

func mustShape(name, src, class string) shape {
	q := query.MustParse(src)
	return shape{name: name, src: src, q: q, full: q.IsFull(), class: class}
}

var (
	triangle  = mustShape("triangle", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", "323333")           // 25432 gates
	path3     = mustShape("path3", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)", "332333")            // 99333 gates
	cycle4    = mustShape("cycle4", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)", "33233333") // 135881 gates
	projected = mustShape("projected", "Q(A,C) :- R(A,B), S(B,C)", "")

	// compiledShapes are the full templates every workload serves.
	compiledShapes = []shape{triangle, path3, cycle4}
)

// classSeeds draws n database seeds for s whose derived degree
// constraints are exactly s.class, so the seed varies the data, salts
// and order while every shape keeps one plan. Without the pin the seed
// would choose among plans whose sizes differ by up to 6x (triangle:
// 24k to 157k word gates), and the spread across seeds would measure
// that choice instead of the system. Each class is among its shape's
// most common (1 in 70 to 1 in 250 generated databases), and their plan
// sizes order the shapes' latency modes triangle < path3 < cycle4.
func classSeeds(rng *rand.Rand, s shape, n int) ([]int64, error) {
	var out []int64
	for try := 0; len(out) < n; try++ {
		if try == 1000000 {
			return nil, fmt.Errorf("no database in %s's constraint class %s", s.name, s.class)
		}
		seed := 1 + rng.Int63n(1<<40)
		if s.class == "" {
			out = append(out, seed)
			continue
		}
		dcs, err := query.DeriveDC(s.q, workload.ForQuery(s.q, seed, tuples))
		if err != nil {
			return nil, err
		}
		if degrees(dcs) == s.class {
			out = append(out, seed)
		}
	}
	return out, nil
}

// degrees renders the degree bounds of a derived constraint list, in
// DeriveDC's order, as digits.
func degrees(dcs query.DCSet) string {
	var b strings.Builder
	for _, dc := range dcs {
		if !dc.IsCardinality() {
			fmt.Fprintf(&b, "%g", dc.N)
		}
	}
	return b.String()
}

// generate builds the database a seed stands for and its derived
// constraints, exactly as the wire server does.
func generate(s shape, seed int64) (query.Database, query.DCSet, error) {
	db := workload.ForQuery(s.q, seed, tuples)
	dcs, err := query.DeriveDC(s.q, db)
	return db, dcs, err
}

// reference computes the expected answer with the RAM evaluator, which
// shares no code with the circuit tiers, rendered as canonical rows.
func reference(q *query.Query, db query.Database) ([]string, error) {
	out, err := query.Evaluate(q, db)
	if err != nil {
		return nil, fmt.Errorf("reference answer: %w", err)
	}
	return testutil.Rows(out), nil
}

// plan is one template compiled outside the engine, through the same
// canonical pair the engine compiles, for the size measures and for
// replaying the layer functions.
type plan struct {
	q        *query.Query // the template the plan was compiled for
	canon    *query.Canonical
	compiled *core.Compiled
}

// compilePlans compiles each (query, constraints) pair's canonical form.
func compilePlans(reqs []engine.Request) ([]plan, error) {
	var out []plan
	for _, r := range reqs {
		canon, err := query.Canonicalize(r.Query, r.DCs)
		if err != nil {
			return nil, err
		}
		cq, err := core.CompileQueryOptsCtx(context.Background(), canon.Query, canon.DCs, core.CompileOptions{})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", r.Query, err)
		}
		out = append(out, plan{q: r.Query, canon: canon, compiled: cq})
	}
	return out, nil
}

// circuitSize sums the optimized word-circuit gates and depths of the
// plans: the paper's size and depth measures.
func circuitSize(plans []plan) (gates, depth int) {
	for _, p := range plans {
		gates += p.compiled.Obliv.C.Size()
		depth += p.compiled.Obliv.C.Depth()
	}
	return gates, depth
}

// restartStats times bringing an engine back over a plan store.
type restartStats struct {
	restart, open, warm []time.Duration
}

func (rs *restartStats) add(o restartStats) {
	rs.restart = append(rs.restart, o.restart...)
	rs.open = append(rs.open, o.open...)
	rs.warm = append(rs.warm, o.warm...)
}

// timeRestarts opens dir and starts a warm engine over it at least reps
// times and for at least minTime, checking that every stored plan is
// loaded. Restarting for a stretch of time, not a count, keeps a short
// slow spell on the host to a minority of the samples. keep, when
// non-nil, receives the last engine instead of closing it.
func timeRestarts(dir string, reps int, minTime time.Duration, wantPlans int, keep func(*engine.Engine, *store.Store)) (restartStats, error) {
	var rs restartStats
	start := time.Now()
	for i := 0; ; i++ {
		last := i+1 >= reps && time.Since(start) >= minTime
		// Collect the previous engine's plans first, so restarts neither
		// pay for nor stack up each other's garbage.
		runtime.GC()
		t0 := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			return rs, err
		}
		t1 := time.Now()
		eng := engine.New(engine.Config{Store: st, WarmStart: true})
		t2 := time.Now()
		rs.restart = append(rs.restart, t2.Sub(t0))
		rs.open = append(rs.open, t1.Sub(t0))
		rs.warm = append(rs.warm, t2.Sub(t1))
		if n := st.Len(); n != wantPlans {
			eng.Close()
			return rs, fmt.Errorf("restart: store holds %d plans, want %d", n, wantPlans)
		}
		if !last {
			eng.Close()
			continue
		}
		if keep != nil {
			keep(eng, st)
		} else {
			eng.Close()
		}
		return rs, nil
	}
}

// attachPlans points each full item at the plan compiled for its query.
func attachPlans(items []replayItem, plans []plan) []replayItem {
	out := append([]replayItem(nil), items...)
	for i := range out {
		for j := range plans {
			if plans[j].q == out[i].req.Query {
				out[i].p = &plans[j]
			}
		}
	}
	return out
}

// planMeasures are the plan-level measures of a hot workload, taken
// outside its measured phases: circuit size, and a store holding its
// plans for the store round trip and the restarts.
type planMeasures struct {
	plans        []plan
	gates, depth int
	sr           storeReplay
	dir          string // the store the restarts open
}

// measurePlans compiles the workload's plan templates and writes them
// to a fresh store.
func measurePlans(b *bench, reqs []engine.Request) (planMeasures, error) {
	var pm planMeasures
	var err error
	if pm.plans, err = compilePlans(reqs); err != nil {
		return pm, err
	}
	pm.gates, pm.depth = circuitSize(pm.plans)
	var arts []*store.PlanArtifact
	for _, p := range pm.plans {
		arts = append(arts, store.FromCompiled(p.canon, p.compiled))
	}
	pm.dir = b.tmp("plans")
	pm.sr, err = replayStore(pm.dir, arts)
	return pm, err
}
