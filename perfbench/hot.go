package main

import (
	"runtime"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/obs"
)

const (
	// hotInstances is how many independently set-up systems a hot run
	// measures, each for an equal share of the run; every figure is the
	// median over instances. Two engines set up identically in one
	// process differ in throughput by up to 20% (the memory layout of
	// their plans and vm programs), while one engine repeats its own
	// figure within 2%, so a run that measured one instance would
	// measure one layout.
	hotInstances = 5
	// instanceWarm is how long an instance serves its traffic before its
	// measured share starts: the first moments after set-up run slower
	// (heap growth, first use of buffers).
	instanceWarm = 500 * time.Millisecond
	// idStride separates the request ids of instances in a span file.
	idStride = 1_000_000_000
	// After each instance the run restarts an engine over the workload's
	// stored plans at least restartReps times and for restartTime;
	// restart_s is the median over all instances' restarts, so a short
	// slow spell on the host touches a minority of them.
	restartReps = 3
	restartTime = 300 * time.Millisecond
)

// hotSystem is one set-up instance of a hot workload.
type hotSystem interface {
	// drive serves the workload's traffic for dur of measured time and
	// checks every answer.
	drive(dur time.Duration, out *outcome) phase
	close()
	engine() *engine.Engine
	evaluator() *timedEval
	replayItems() []replayItem
	benchSpans() []benchSpan
}

// hotWorkload describes a hot workload to runHot.
type hotWorkload struct {
	// start sets up one instance; tr, when set, traces it, and idBase
	// offsets its request ids.
	start func(tr *obs.Tracer, idBase int64) (hotSystem, error)
	// templates are requests (query and constraints) of the plans the
	// workload serves.
	templates []engine.Request
	// window is the length of the windows latency percentiles are taken
	// over: long enough for at least 10 samples beyond the tail
	// percentile.
	window time.Duration
	tailQ  float64
	// report, when set, prints workload-specific detail of the measured
	// phases.
	report func([]phase)
	// inSituWire: the traffic crosses the wire, so wire.self_us is
	// measured on it rather than by wireReplay.
	inSituWire bool
}

func runHot(b *bench, w hotWorkload) (*outcome, error) {
	out := &outcome{}
	pm, err := measurePlans(b, w.templates)
	if err != nil {
		return nil, err
	}
	var rs restartStats
	restart := func() error {
		r, err := timeRestarts(pm.dir, restartReps, restartTime, len(pm.plans), nil)
		rs.add(r)
		return err
	}
	if !b.trace {
		var setups []time.Duration
		var phases []phase
		for i := 0; i < hotInstances; i++ {
			runtime.GC() // each set-up starts from a collected heap
			t0 := time.Now()
			sys, err := w.start(nil, 0)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0))
			sys.drive(instanceWarm, out)
			phases = append(phases, sys.drive(b.dur/hotInstances, out))
			sys.close()
			if err := restart(); err != nil {
				return nil, err
			}
		}
		if w.report != nil {
			w.report(phases)
		}
		out.metrics = endToEnd(phases, w.window, w.tailQ, setups, rs, pm.gates, pm.depth)
		return out, nil
	}

	// Traced run: instances alternate untraced (the overhead baseline)
	// and traced, each with its own tracer.
	const instances = 4
	var (
		base, traced     []phase
		ts               treeStats
		agg              = map[string]obs.StageAgg{}
		hits, misses     int64
		batches, batched int64
		roots            []*obs.Span
		spans            []benchSpan
		sys              hotSystem
	)
	for i := 0; i < instances; i++ {
		var tr *obs.Tracer
		if i%2 == 1 {
			tr = obs.NewTracer(ringSize)
		}
		runtime.GC()
		idBase := int64(i) * idStride
		if sys, err = w.start(tr, idBase); err != nil {
			return nil, err
		}
		sys.drive(instanceWarm, out)
		m0, q0 := sys.engine().Metrics(), sys.engine().QoS()
		from := time.Now()
		ph := sys.drive(b.dur/instances, out)
		m1, q1 := sys.engine().Metrics(), sys.engine().QoS()
		sys.close()
		if err := restart(); err != nil {
			return nil, err
		}
		if tr == nil {
			base = append(base, ph)
			continue
		}
		traced = append(traced, ph)
		r, err := tracedRoots(tr, sys.evaluator().seq.Load()-idBase)
		if err != nil {
			return nil, err
		}
		ts.add(walkTrees(r, from))
		mergeAggregates(agg, tr.Aggregates())
		hits += m1.Hits - m0.Hits
		misses += m1.Misses - m0.Misses
		batches += q1.Batches - q0.Batches
		batched += q1.BatchedRequests - q0.BatchedRequests
		roots = append(roots, r...)
		spans = append(spans, sys.benchSpans()...)
	}
	if w.report != nil {
		w.report(traced)
	}
	rp, err := replayLayers(attachPlans(sys.replayItems(), pm.plans))
	if err != nil {
		return nil, err
	}
	tp := pooled(traced)
	wireSelf := meanOf(tp.rtt, tp.n) - meanOf(ts.latency, ts.timed)
	if !w.inSituWire {
		if wireSelf, err = wireReplay(b); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(b.spanPath(), b.epoch, spans, roots); err != nil {
		return nil, err
	}
	vmBatchMean := 1.0 // coalescing off: every vm request is its own batch
	if batches > 0 {
		vmBatchMean = float64(batched) / float64(batches)
	}
	out.metrics = layerMetrics(layerInputs{
		ts: ts, agg: agg, rp: rp, sr: pm.sr, rs: rs,
		wireSelf:    wireSelf,
		hitRatio:    ratio(hits, hits+misses),
		vmBatchMean: vmBatchMean,
		fallbacks:   tp.fallbacks,
		overhead:    pooled(base).rps() / tp.rps(),
	})
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// mergeAggregates folds one tracer's per-stage aggregates into into.
func mergeAggregates(into map[string]obs.StageAgg, from map[string]obs.StageAgg) {
	for name, a := range from {
		m := into[name]
		m.Count += a.Count
		m.TotalDur += a.TotalDur
		m.Errors += a.Errors
		if a.MaxDur > m.MaxDur {
			m.MaxDur = a.MaxDur
		}
		if m.Counters == nil {
			m.Counters = map[string]int64{}
		}
		for k, v := range a.Counters {
			m.Counters[k] += v
		}
		into[name] = m
	}
}
