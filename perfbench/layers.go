package main

import (
	"time"

	"circuitql/internal/obs"
)

// metric is one named measurement printed in the result line.
type metric struct {
	name  string
	value float64
	unit  string
}

// layerInputs gathers what a traced phase measured, for layerMetrics.
type layerInputs struct {
	ts       treeStats
	agg      map[string]obs.StageAgg
	rp       replayStats
	sr       storeReplay
	rs       restartStats
	wireSelf time.Duration // client round trip minus Submit→result
	hitRatio float64       // plan-cache hits over lookups in the traced phase
	// vmBatchMean is the timed phase's coalesced requests per vm batch
	// (1 when coalescing is off).
	vmBatchMean float64
	fallbacks   int64   // timed requests not served by the vm tier
	overhead    float64 // untraced over traced throughput
}

// layerMetrics derives the per-layer metrics. Compile stages are
// reported per compile, serve-path stages per request of the timed
// phase; stage times are self times (children's intervals removed).
func layerMetrics(in layerInputs) []metric {
	ts := in.ts
	compiles := ts.count[obs.StageCompile]
	perCompile := func(stage string) float64 { return ms(meanOf(ts.self[stage], compiles)) }
	countPerCompile := func(stage, key string) float64 {
		if compiles == 0 {
			return 0
		}
		return float64(in.agg[stage].Counters[key]) / float64(compiles)
	}

	ram := in.rp.ram
	if ts.ramRequests > 0 {
		ram = meanOf(ts.ramTier, ts.ramRequests)
	}
	gateRatio := 0.0
	if opt := in.agg[obs.StageOptimize].Counters; opt[obs.CounterOptGatesBefore] > 0 {
		gateRatio = float64(opt[obs.CounterOptGatesAfter]) / float64(opt[obs.CounterOptGatesBefore])
	}
	batchSize := 0.0
	if ts.vmBatches > 0 {
		batchSize = float64(ts.vmBatched) / float64(ts.vmBatches)
	}
	queueWait := meanOf(ts.queueWait, ts.timed)
	// Every stage of a request's latency is attributed except the serve
	// span's self time, of which ValidateDB is the one named layer.
	unattributed := meanOf(ts.serveSelf, ts.timed) - in.rp.validate

	return []metric{
		{"wire.self_us", us(in.wireSelf), "us"},
		{"query.canonicalize_us", us(in.rp.canonicalize), "us"},
		{"query.validate_us", us(in.rp.validate), "us"},
		{"engine.queue_wait_us", us(queueWait), "us"},
		{"engine.hit_ratio", in.hitRatio, "ratio"},
		{"engine.tier_fallbacks", float64(in.fallbacks), "count"},
		{"engine.vm_batch_mean", in.vmBatchMean, "count"},
		{"core.pack_us", us(in.rp.pack), "us"},
		{"core.decode_us", us(in.rp.decode), "us"},
		{"vm.eval_us", us(meanOf(ts.vmEval, ts.vmBatched)), "us"},
		{"vm.batch_size", batchSize, "count"},
		{"relation.ram_us", us(ram), "us"},
		{"lp.solve_ms", perCompile(obs.StageLPSolve), "ms"},
		{"lp.pivots", countPerCompile(obs.StageLPSolve, obs.CounterPivots), "count"},
		{"proofseq.build_ms", perCompile(obs.StageProofSeq), "ms"},
		{"proofseq.steps", countPerCompile(obs.StageProofSeq, obs.CounterSteps), "count"},
		{"panda.relcircuit_ms", perCompile(obs.StageRelCirc), "ms"},
		{"panda.rel_gates", countPerCompile(obs.StageRelCirc, obs.CounterRelGates), "count"},
		{"boolcircuit.lower_ms", perCompile(obs.StageBoolCirc), "ms"},
		{"boolcircuit.gates_raw", countPerCompile(obs.StageBoolCirc, obs.CounterGates), "count"},
		{"opt.optimize_ms", perCompile(obs.StageOptimize), "ms"},
		{"opt.gate_ratio", gateRatio, "ratio"},
		{"vm.compile_ms", ms(meanOf(ts.self[obs.StageVMComp], ts.count[obs.StageVMComp])), "ms"},
		{"store.write_ms", ms(in.sr.write), "ms"},
		{"store.bytes_per_plan", in.sr.bytesPerPlan, "bytes"},
		{"store.open_ms", ms(median(in.rs.open)), "ms"},
		{"store.get_ms", ms(in.sr.get), "ms"},
		{"engine.warm_load_ms", ms(median(in.rs.warm)), "ms"},
		{"obs.trace_overhead_ratio", in.overhead, "ratio"},
		{"trace.unattributed_us", us(unattributed), "us"},
	}
}
