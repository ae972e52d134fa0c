package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/obs"
)

// Benchmark span names. submitSpan roots each request's tree in the
// engine's tracer (the engine's serve span nests under it); wireSpan is
// the client's round trip, kept in the benchmark's own records.
const (
	submitSpan = "bench.submit"
	wireSpan   = "bench.wire_do"
)

// ringSize bounds the tracer's ring of root trees; every traced phase
// checks that it kept every root (no request's tree was dropped).
const ringSize = 1 << 21

// timedEval wraps an engine and times every request from Submit to its
// result. With a tracer the timing is a root span carrying the request
// id, under which the engine's serve tree nests. It also serves as the
// wire server's Evaluator.
type timedEval struct {
	eng *engine.Engine
	tr  *obs.Tracer

	seq   atomic.Int64 // last request id
	n     atomic.Int64
	total atomic.Int64 // summed Submit→result nanoseconds
}

type timedResult struct {
	engine.Result
	lat time.Duration
}

func (t *timedEval) submit(ctx context.Context, req engine.Request) <-chan timedResult {
	out := make(chan timedResult, 1)
	t.run(ctx, req, func(res engine.Result, lat time.Duration) { out <- timedResult{Result: res, lat: lat} })
	return out
}

// Submit implements wire.Evaluator.
func (t *timedEval) Submit(ctx context.Context, req engine.Request) <-chan engine.Result {
	out := make(chan engine.Result, 1)
	t.run(ctx, req, func(res engine.Result, _ time.Duration) { out <- res })
	return out
}

// run submits req and hands its result and latency to deliver, which
// must not block.
func (t *timedEval) run(ctx context.Context, req engine.Request, deliver func(engine.Result, time.Duration)) {
	id := t.seq.Add(1)
	var sp *obs.Span
	if t.tr != nil {
		ctx, sp = obs.StartSpan(obs.WithTracer(ctx, t.tr), submitSpan)
		sp.SetTag("req", strconv.FormatInt(id, 10))
	}
	start := time.Now()
	in := t.eng.Submit(ctx, req)
	go func() {
		res := <-in
		lat := time.Since(start)
		sp.End()
		t.n.Add(1)
		t.total.Add(int64(lat))
		deliver(res, lat)
	}()
}

// benchSpan is one span recorded by the benchmark itself.
type benchSpan struct {
	name       string
	req        int64
	start, end time.Time
}

// treeStats folds the tracer's root trees into per-stage self times and
// the serve-path breakdown of the requests that started at or after
// from (the timed phase).
type treeStats struct {
	// self is each stage's summed self time (its duration minus the
	// union of its children's intervals), count its span count; over
	// every tree, so compile stages run during set-up are included.
	self  map[string]time.Duration
	count map[string]int64
	// Timed-phase requests only.
	timed       int64
	latency     time.Duration // submitSpan durations
	queueWait   time.Duration // submitSpan minus its serve child
	serveSelf   time.Duration // serve minus the union of its children
	vmEval      time.Duration // vm-eval span durations
	vmBatched   int64         // summed batch_size of those spans
	vmBatches   int64
	ramTier     time.Duration
	ramRequests int64
}

// add folds another instance's stats into ts.
func (ts *treeStats) add(o treeStats) {
	if ts.self == nil {
		ts.self, ts.count = map[string]time.Duration{}, map[string]int64{}
	}
	for k, v := range o.self {
		ts.self[k] += v
	}
	for k, v := range o.count {
		ts.count[k] += v
	}
	ts.timed += o.timed
	ts.latency += o.latency
	ts.queueWait += o.queueWait
	ts.serveSelf += o.serveSelf
	ts.vmEval += o.vmEval
	ts.vmBatched += o.vmBatched
	ts.vmBatches += o.vmBatches
	ts.ramTier += o.ramTier
	ts.ramRequests += o.ramRequests
}

func walkTrees(roots []*obs.Span, from time.Time) treeStats {
	ts := treeStats{self: map[string]time.Duration{}, count: map[string]int64{}}
	var visit func(s *obs.Span, timed bool)
	visit = func(s *obs.Span, timed bool) {
		kids := s.Children()
		self := s.Duration() - covered(s, kids)
		ts.self[s.Name] += self
		ts.count[s.Name]++
		if timed {
			switch s.Name {
			case obs.StageServe:
				ts.serveSelf += self
			case obs.StageVMEval:
				ts.vmEval += s.Duration()
				ts.vmBatches++
				ts.vmBatched += counter(s, obs.CounterBatchSize)
			case obs.StageTier + engine.TierRAM:
				ts.ramTier += s.Duration()
				ts.ramRequests++
			}
		}
		for _, k := range kids {
			visit(k, timed)
		}
	}
	for _, r := range roots {
		timed := !r.Start.Before(from)
		if timed && r.Name == submitSpan {
			ts.timed++
			ts.latency += r.Duration()
			wait := r.Duration()
			for _, k := range r.Children() {
				if k.Name == obs.StageServe {
					wait -= k.Duration()
				}
			}
			ts.queueWait += wait
		}
		visit(r, timed)
	}
	return ts
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *obs.Span, kids []*obs.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	pEnd := parent.Start.Add(parent.Duration())
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Duration())
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(pEnd) {
			b = pEnd
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 {
			cur = v
			continue
		}
		if v.a.After(cur.b) {
			sum += cur.b.Sub(cur.a)
			cur = v
		} else if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

func counter(s *obs.Span, key string) int64 {
	for _, a := range s.Attrs() {
		if a.Key == key && a.Str == "" {
			return a.Int
		}
	}
	return 0
}

func tag(s *obs.Span, key string) string {
	for _, a := range s.Attrs() {
		if a.Key == key && a.Str != "" {
			return a.Str
		}
	}
	return ""
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Req     int64             `json:"req"`
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent"`
	Name    string            `json:"name"`
	StartUS float64           `json:"start_us"`
	EndUS   float64           `json:"end_us"`
	Ints    map[string]int64  `json:"ints,omitempty"`
	Tags    map[string]string `json:"tags,omitempty"`
}

// writeSpans writes the benchmark's spans and the tracer's trees as JSON
// lines, times in microseconds since epoch. Each tree's spans carry the
// request id tagged on its root (0 for trees rooted in the engine).
func writeSpans(path string, epoch time.Time, bench []benchSpan, roots []*obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var id int64
	rel := func(t time.Time) float64 { return float64(t.Sub(epoch).Nanoseconds()) / 1e3 }
	for _, s := range bench {
		id++
		if err := enc.Encode(spanRecord{Req: s.req, ID: id, Name: s.name, StartUS: rel(s.start), EndUS: rel(s.end)}); err != nil {
			f.Close()
			return err
		}
	}
	var emit func(s *obs.Span, parent, req int64) error
	emit = func(s *obs.Span, parent, req int64) error {
		id++
		rec := spanRecord{Req: req, ID: id, Parent: parent, Name: s.Name,
			StartUS: rel(s.Start), EndUS: rel(s.Start.Add(s.Duration()))}
		for _, a := range s.Attrs() {
			if a.Str != "" {
				if rec.Tags == nil {
					rec.Tags = map[string]string{}
				}
				rec.Tags[a.Key] = a.Str
			} else {
				if rec.Ints == nil {
					rec.Ints = map[string]int64{}
				}
				rec.Ints[a.Key] = a.Int
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		self := id
		for _, k := range s.Children() {
			if err := emit(k, self, req); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		req, _ := strconv.ParseInt(tag(r, "req"), 10, 64)
		if err := emit(r, 0, req); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newTimedEval wraps eng; its request ids start after idBase.
func newTimedEval(eng *engine.Engine, tr *obs.Tracer, idBase int64) *timedEval {
	t := &timedEval{eng: eng, tr: tr}
	t.seq.Store(idBase)
	return t
}

// tracedRoots returns every root tree the tracer kept, oldest first,
// failing when the ring dropped any of the want roots it was sized for.
func tracedRoots(tr *obs.Tracer, want int64) ([]*obs.Span, error) {
	last := tr.Last(0)
	if int64(len(last)) < want || len(last) >= ringSize {
		return nil, fmt.Errorf("tracer kept %d root trees, want %d (ring %d)", len(last), want, ringSize)
	}
	for i, j := 0, len(last)-1; i < j; i, j = i+1, j-1 {
		last[i], last[j] = last[j], last[i]
	}
	return last, nil
}
