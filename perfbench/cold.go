package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/testutil"
)

const (
	// coldClients submit the set concurrently, each in a closed loop.
	coldClients = 2
	// coldPerSecond sizes the fixed set: seconds × coldPerSecond fresh
	// fingerprints, which a 2-core Xeon compiles in about the run
	// length. A fixed set (not a time limit) keeps restart_s measuring
	// the same number of stored plans whatever the compile speed.
	coldPerSecond = 6
	// coldRestarts is how many warm restarts restart_s is the median of.
	coldRestarts = 5
)

// coldSet is the fixed set of fresh-fingerprint requests, triangle,
// path3 and cycle4 in equal shares and seeded order. Each request's
// constraints carry a distinct loose "R <= salt", so no two share a
// plan while every plan of a shape costs the same to compile.
type coldSet struct {
	reqs  []engine.Request
	want  [][]string
	shape []int
	// templates holds one unsalted request per shape, compiled at
	// set-up for the size measures and the layer replays.
	templates []engine.Request
}

// coldInputs is what a cold set is generated from: a shape, database
// seed and salt per request, and a database seed per template.
type coldInputs struct {
	shape     []int
	seed      []int64
	salt      int
	templates []int64
}

func drawColdInputs(b *bench, k int) (coldInputs, error) {
	rng := b.rng(1)
	var in coldInputs
	byShape := make([][]int64, len(compiledShapes))
	for si, s := range compiledShapes {
		seeds, err := classSeeds(rng, s, 1+k/len(compiledShapes))
		if err != nil {
			return in, err
		}
		in.templates = append(in.templates, seeds[0])
		byShape[si] = seeds[1:]
	}
	for i := 0; i < k; i++ {
		in.shape = append(in.shape, i%len(compiledShapes))
	}
	rng.Shuffle(k, func(i, j int) { in.shape[i], in.shape[j] = in.shape[j], in.shape[i] })
	for _, si := range in.shape {
		in.seed = append(in.seed, byShape[si][0])
		byShape[si] = byShape[si][1:]
	}
	in.salt = tuples + 1 + rng.Intn(1000)
	return in, nil
}

func makeColdSet(b *bench, in coldInputs) (*coldSet, error) {
	cs := &coldSet{shape: in.shape}
	for si, s := range compiledShapes {
		db, dcs, err := generate(s, in.templates[si])
		if err != nil {
			return nil, err
		}
		cs.templates = append(cs.templates, engine.Request{Query: s.q, DCs: dcs, DB: db})
	}
	for i, si := range in.shape {
		s := compiledShapes[si]
		db, dcs, err := generate(s, in.seed[i])
		if err != nil {
			return nil, err
		}
		extra, err := query.ParseDC(s.q, fmt.Sprintf("R <= %d", in.salt+i))
		if err != nil {
			return nil, err
		}
		rows, err := reference(s.q, db)
		if err != nil {
			return nil, err
		}
		cs.reqs = append(cs.reqs, engine.Request{Query: s.q, DCs: append(dcs, extra...), DB: db})
		cs.want = append(cs.want, rows)
	}
	if b.corrupt {
		cs.want[0] = append(cs.want[0], "A=-1")
	}
	return cs, nil
}

// coldSystem is an engine writing through to a plan store in a fresh
// directory.
type coldSystem struct {
	set   *coldSet
	plans []plan
	dir   string
	eng   *engine.Engine
	ev    *timedEval
}

func startCold(b *bench, in coldInputs, tr *obs.Tracer) (*coldSystem, error) {
	set, err := makeColdSet(b, in)
	if err != nil {
		return nil, err
	}
	// Plan warm-up: compile each shape once before the timed phase, so
	// lazy initialization is not charged to the first fresh compiles.
	plans, err := compilePlans(set.templates)
	if err != nil {
		return nil, err
	}
	cs := &coldSystem{set: set, plans: plans, dir: b.tmp("store")}
	if err := os.MkdirAll(cs.dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(cs.dir)
	if err != nil {
		return nil, err
	}
	cs.eng = engine.New(engine.Config{Store: st, Tracer: tr})
	cs.ev = &timedEval{eng: cs.eng, tr: tr}
	return cs, nil
}

func (cs *coldSystem) discard() {
	cs.eng.Close()
	os.RemoveAll(cs.dir)
}

// coldPhase is what one timed phase measured.
type coldPhase struct {
	phase
	before, after engine.Metrics
	rs            restartStats
}

// drive submits the whole set from coldClients closed loops, closes the
// engine (which finishes the store writes), checks every answer and
// that each request compiled, then restarts over the store reps times
// and serves every stored shape once more, asserting zero compiles.
func (cs *coldSystem) drive(reps int, out *outcome) (coldPhase, error) {
	set := cs.set
	var ph coldPhase
	res := make([]timedResult, len(set.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	ph.before = cs.eng.Metrics()
	start := time.Now()
	for c := 0; c < coldClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(res)); i = next.Add(1) - 1 {
				res[i] = <-cs.ev.submit(context.Background(), set.reqs[i])
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.after = cs.eng.Metrics()
	cs.eng.Close()

	ph.n = int64(len(res))
	out.attempted += ph.n
	for i, r := range res {
		ph.lat = append(ph.lat, r.lat)
		if r.Tier != engine.TierVM {
			ph.fallbacks++
		}
		cs.check(i, r.Result, "cold", out)
	}
	if c := ph.after.Compiles - ph.before.Compiles; c != ph.n {
		return ph, fmt.Errorf("cold-compile: %d compiles for %d fresh fingerprints", c, ph.n)
	}

	var warm *engine.Engine
	var err error
	ph.rs, err = timeRestarts(cs.dir, reps, 0, len(set.reqs), func(e *engine.Engine, _ *store.Store) { warm = e })
	if err != nil {
		return ph, err
	}
	defer warm.Close()
	for i, r := range set.reqs {
		out.attempted++
		cs.check(i, warm.Serve(context.Background(), r), "restart", out)
	}
	m := warm.Metrics()
	fmt.Printf("# cold-compile restart: %d plans, %d requests served, %d compiles\n", m.StorePlans, m.Requests, m.Compiles)
	if m.Compiles != 0 {
		return ph, fmt.Errorf("cold-compile: %d compiles after a warm restart, want 0", m.Compiles)
	}
	return ph, nil
}

func (cs *coldSystem) check(i int, r engine.Result, phase string, out *outcome) {
	if r.Err != nil {
		out.failed++
		return
	}
	if d := testutil.DiffRows(cs.set.want[i], testutil.Rows(r.Output), "reference", "engine"); d != "" {
		out.mismatch("cold-compile %s %s request %d: %s", phase, compiledShapes[cs.set.shape[i]].name, i, d)
	}
}

func runColdCompile(b *bench) (*outcome, error) {
	out := &outcome{}
	k := coldPerSecond * int(b.dur.Seconds())
	k -= k % len(compiledShapes)
	in, err := drawColdInputs(b, k)
	if err != nil {
		return nil, err
	}
	if !b.trace {
		var setups []time.Duration
		var cs *coldSystem
		for i := 0; i < setupReps; i++ {
			if cs != nil {
				cs.discard()
			}
			runtime.GC() // each set-up starts from a collected heap
			t0 := time.Now()
			if cs, err = startCold(b, in, nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0))
		}
		ph, err := cs.drive(coldRestarts, out)
		os.RemoveAll(cs.dir)
		if err != nil {
			return nil, err
		}
		gates, depth := circuitSize(cs.plans)
		out.metrics = endToEnd([]phase{ph.phase}, 0, 0.90, setups, ph.rs, gates, depth)
		return out, nil
	}

	// Traced run: half the set untraced for the overhead baseline, then
	// a traced half of fresh fingerprints (the salts continue).
	half := k / 2
	first, second := in, in
	first.shape, first.seed = in.shape[:half], in.seed[:half]
	second.shape, second.seed, second.salt = in.shape[half:], in.seed[half:], in.salt+half
	cs, err := startCold(b, first, nil)
	if err != nil {
		return nil, err
	}
	base, err := cs.drive(1, out)
	os.RemoveAll(cs.dir)
	if err != nil {
		return nil, err
	}

	tr := obs.NewTracer(ringSize)
	if cs, err = startCold(b, second, tr); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cs.dir)
	from := time.Now()
	ph, err := cs.drive(coldRestarts, out)
	if err != nil {
		return nil, err
	}
	roots, err := tracedRoots(tr, cs.ev.seq.Load())
	if err != nil {
		return nil, err
	}
	ts := walkTrees(roots, from)

	var items []replayItem
	for i, r := range cs.set.reqs {
		items = append(items, replayItem{req: r, rows: len(cs.set.want[i])})
	}
	rp, err := replayLayers(attachPlans(items, cs.plans))
	if err != nil {
		return nil, err
	}
	sr, err := replayStoredPlans(b, cs.dir, 24)
	if err != nil {
		return nil, err
	}
	wireSelf, err := wireReplay(b)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(b.spanPath(), b.epoch, nil, roots); err != nil {
		return nil, err
	}
	out.metrics = layerMetrics(layerInputs{
		ts: ts, agg: tr.Aggregates(), rp: rp, sr: sr, rs: ph.rs,
		wireSelf:    wireSelf,
		hitRatio:    ratio(ph.after.Hits-ph.before.Hits, ph.after.Hits+ph.after.Misses-ph.before.Hits-ph.before.Misses),
		vmBatchMean: 1,
		fallbacks:   ph.fallbacks,
		overhead:    base.rps() / ph.rps(),
	})
	return out, nil
}

// replayStoredPlans reads up to n plans the engine stored in dir and
// replays their writes into a fresh store.
func replayStoredPlans(b *bench, dir string, n int) (storeReplay, error) {
	st, err := store.Open(dir)
	if err != nil {
		return storeReplay{}, err
	}
	var arts []*store.PlanArtifact
	for _, fp := range st.Plans() {
		if len(arts) == n {
			break
		}
		a, err := st.GetPlan(fp)
		if err != nil {
			return storeReplay{}, err
		}
		arts = append(arts, a)
	}
	fresh := b.tmp("replay")
	defer os.RemoveAll(fresh)
	return replayStore(fresh, arts)
}
