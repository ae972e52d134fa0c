package main

import (
	"context"
	"fmt"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/testutil"
)

// batchWidth is hot-batch's requests per call and the engine's
// BatchMaxSize.
const batchWidth = 64

// batchSystem is an embedded coalescing engine with 64 databases per
// shape, all under the shape's cardinality constraints, so each shape's
// 64 requests share one plan.
type batchSystem struct {
	eng    *engine.Engine
	ev     *timedEval
	reqs   [][]engine.Request // per shape, batchWidth each
	want   [][][]string       // reference rows, same layout
	replay []replayItem
}

func startBatch(b *bench, tr *obs.Tracer, idBase int64) (*batchSystem, error) {
	bs := &batchSystem{}
	rng := b.rng(1)
	for _, s := range compiledShapes {
		dcs := query.Cardinalities(s.q, tuples)
		var reqs []engine.Request
		var want [][]string
		for i := 0; i < batchWidth; i++ {
			db := testutil.RandomDB(s.q, rng.Int63(), tuples)
			rows, err := reference(s.q, db)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, engine.Request{Query: s.q, DCs: dcs, DB: db})
			want = append(want, rows)
			bs.replay = append(bs.replay, replayItem{req: reqs[i], rows: len(rows)})
		}
		bs.reqs = append(bs.reqs, reqs)
		bs.want = append(bs.want, want)
	}
	if b.corrupt {
		bs.want[0][0] = append(bs.want[0][0], "A=-1,B=-1,C=-1")
	}
	bs.eng = engine.New(engine.Config{BatchMaxSize: batchWidth, Tracer: tr})
	bs.ev = newTimedEval(bs.eng, tr, idBase)
	for k := range compiledShapes {
		for _, r := range bs.call(k) {
			if r.Err != nil {
				bs.eng.Close()
				return nil, fmt.Errorf("warm-up %s: %w", compiledShapes[k].name, r.Err)
			}
		}
	}
	return bs, nil
}

// call submits shape k's batch from one goroutine and waits for every
// result, each timed from its Submit.
func (bs *batchSystem) call(k int) []timedResult {
	chans := make([]<-chan timedResult, batchWidth)
	for i, r := range bs.reqs[k] {
		chans[i] = bs.ev.submit(context.Background(), r)
	}
	out := make([]timedResult, batchWidth)
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out
}

func (bs *batchSystem) close()                    { bs.eng.Close() }
func (bs *batchSystem) engine() *engine.Engine    { return bs.eng }
func (bs *batchSystem) evaluator() *timedEval     { return bs.ev }
func (bs *batchSystem) replayItems() []replayItem { return bs.replay }
func (bs *batchSystem) benchSpans() []benchSpan   { return nil }

// drive rotates triangle → path3 → cycle4 per call for dur of call
// time, checking each call's answers between calls.
func (bs *batchSystem) drive(dur time.Duration, out *outcome) phase {
	var ph phase
	for c := 0; ph.elapsed < dur; c++ {
		k := c % len(compiledShapes)
		t0 := time.Now()
		res := bs.call(k)
		ph.elapsed += time.Since(t0)
		for i, r := range res {
			ph.n++
			ph.lat = append(ph.lat, r.lat)
			ph.at = append(ph.at, ph.elapsed)
			if r.Err != nil {
				out.failed++
				continue
			}
			if r.Tier != engine.TierVM {
				ph.fallbacks++
			}
			if d := testutil.DiffRows(bs.want[k][i], testutil.Rows(r.Output), "reference", "engine"); d != "" {
				out.mismatch("hot-batch %s db %d: %s", compiledShapes[k].name, i, d)
			}
		}
	}
	out.attempted += ph.n
	return ph
}

func runHotBatch(b *bench) (*outcome, error) {
	var templates []engine.Request
	for _, s := range compiledShapes {
		templates = append(templates, engine.Request{Query: s.q, DCs: query.Cardinalities(s.q, tuples)})
	}
	return runHot(b, hotWorkload{
		start: func(tr *obs.Tracer, idBase int64) (hotSystem, error) {
			return startBatch(b, tr, idBase)
		},
		templates: templates,
		window:    2 * time.Second, // about 1900 requests
		tailQ:     0.99,
	})
}
