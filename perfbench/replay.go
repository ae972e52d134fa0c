package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/vm"
)

// replayItem is one workload request replayed through the layer
// functions that have no span of their own. p is the request's template
// plan (nil for RAM-only shapes); rows is the expected output size.
type replayItem struct {
	req  engine.Request
	p    *plan
	rows int
}

// replayStats holds mean per-call times of the replayed layers.
type replayStats struct {
	canonicalize, validate, pack, decode, ram time.Duration
}

// replayMinCalls and replayMinTime bound a replay: at least this many
// calls per layer and this much wall time, whichever is more.
const (
	replayMinCalls = 200
	replayMinTime  = 300 * time.Millisecond
)

// replayLayers times query.Canonicalize, query.ValidateDB,
// PackOblivious, DecodeOblivious and the RAM evaluator over items.
// Decoded outputs are checked against the expected row counts.
func replayLayers(items []replayItem) (replayStats, error) {
	ctx := context.Background()
	progs := map[*plan]*vm.Program{}
	for _, it := range items {
		if it.p != nil && progs[it.p] == nil {
			prog, err := vm.Compile(ctx, it.p.compiled.Obliv.C)
			if err != nil {
				return replayStats{}, err
			}
			progs[it.p] = prog
		}
	}
	var tot replayStats
	var calls, packs int64
	start := time.Now()
	for calls < replayMinCalls || time.Since(start) < replayMinTime {
		for _, it := range items {
			calls++
			t0 := time.Now()
			if _, err := query.Canonicalize(it.req.Query, it.req.DCs); err != nil {
				return replayStats{}, err
			}
			t1 := time.Now()
			if err := query.ValidateDB(it.req.Query, it.req.DCs, it.req.DB); err != nil {
				return replayStats{}, err
			}
			t2 := time.Now()
			if _, err := query.Evaluate(it.req.Query, it.req.DB); err != nil {
				return replayStats{}, err
			}
			t3 := time.Now()
			tot.canonicalize += t1.Sub(t0)
			tot.validate += t2.Sub(t1)
			tot.ram += t3.Sub(t2)
			if it.p == nil {
				continue
			}
			in, err := it.p.compiled.PackOblivious(it.req.DB)
			if err != nil {
				return replayStats{}, err
			}
			t4 := time.Now()
			outs, err := progs[it.p].EvalBatch(ctx, [][]vm.Word{in})
			if err != nil {
				return replayStats{}, err
			}
			t5 := time.Now()
			rel, err := it.p.compiled.DecodeOblivious(outs[0])
			if err != nil {
				return replayStats{}, err
			}
			t6 := time.Now()
			if rel.Len() != it.rows {
				return replayStats{}, fmt.Errorf("replay of %s decoded %d rows, want %d", it.req.Query, rel.Len(), it.rows)
			}
			packs++
			tot.pack += t4.Sub(t3)
			tot.decode += t6.Sub(t5)
		}
	}
	return replayStats{
		canonicalize: meanOf(tot.canonicalize, calls),
		validate:     meanOf(tot.validate, calls),
		ram:          meanOf(tot.ram, calls),
		pack:         meanOf(tot.pack, packs),
		decode:       meanOf(tot.decode, packs),
	}, nil
}

// storeReplay times store.PutPlan into a fresh directory and GetPlan
// back out of it.
type storeReplay struct {
	write, get   time.Duration // mean per plan
	bytesPerPlan float64
}

func replayStore(dir string, arts []*store.PlanArtifact) (storeReplay, error) {
	var sr storeReplay
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sr, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return sr, err
	}
	var write, get time.Duration
	for _, a := range arts {
		t0 := time.Now()
		if err := st.PutPlan(a); err != nil {
			return sr, err
		}
		write += time.Since(t0)
	}
	for _, a := range arts {
		t0 := time.Now()
		if _, err := st.GetPlan(a.FP); err != nil {
			return sr, err
		}
		get += time.Since(t0)
	}
	s := st.Stats()
	if s.Writes != int64(len(arts)) {
		return sr, fmt.Errorf("store replay wrote %d of %d plans", s.Writes, len(arts))
	}
	n := int64(len(arts))
	sr.write, sr.get = meanOf(write, n), meanOf(get, n)
	sr.bytesPerPlan = float64(s.BytesWritten) / float64(n)
	return sr, nil
}
