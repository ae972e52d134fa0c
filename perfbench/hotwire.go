package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/obs"
	"circuitql/internal/wire"
)

// wireMix is hot-wire's traffic. The weights keep the median inside the
// triangle's latency mode and the p99 inside cycle4's; the run prints
// every shape's p50 and p99 to show it.
var wireMix = []struct {
	s      shape
	weight int
}{{triangle, 8}, {path3, 3}, {cycle4, 1}, {projected, 1}}

// wireWarmRounds is how many shuffled mix blocks warm a fresh server
// after every shape's first (compiling) request.
const wireWarmRounds = 8

// wireSpec is what a wire system serves: shapes, one database seed per
// shape, and mix weights.
type wireSpec struct {
	shapes  []shape
	seeds   []int64
	weights []int
}

// newWireSpec draws one database seed per shape of the mix.
func newWireSpec(b *bench, shapes []shape, weights []int) (wireSpec, error) {
	spec := wireSpec{shapes: shapes, weights: weights}
	rng := b.rng(1)
	for _, s := range shapes {
		seeds, err := classSeeds(rng, s, 1)
		if err != nil {
			return spec, err
		}
		spec.seeds = append(spec.seeds, seeds[0])
	}
	return spec, nil
}

// wireSystem is an engine behind an in-process wire server on
// 127.0.0.1, with one client connection.
type wireSystem struct {
	eng    *engine.Engine
	ev     *timedEval // nil when the server drives the engine directly
	srv    *wire.Server
	served chan error
	client *wire.Client
	sent   int64 // client requests so far, the request id of the next
	mix    *mixer

	spec   wireSpec
	reqs   []wire.Request // per shape
	want   []uint32       // expected rows per shape
	replay []replayItem
	spans  []benchSpan // client round trips, when traced
	traced bool
}

// startWire builds the shapes' databases and reference answers, starts
// the engine (default config: no coalescing, as circuitd runs it) and
// the server, and warms every plan. With timed set the server drives
// the engine through a timedEval, recording into tr when it is set.
func startWire(b *bench, spec wireSpec, tr *obs.Tracer, timed bool, idBase int64) (*wireSystem, error) {
	ws := &wireSystem{spec: spec, served: make(chan error, 1), sent: idBase, traced: tr != nil,
		mix: newMixer(b.rng(3), spec.weights)}
	for i, s := range spec.shapes {
		db, dcs, err := generate(s, spec.seeds[i])
		if err != nil {
			return nil, err
		}
		rows, err := reference(s.q, db)
		if err != nil {
			return nil, err
		}
		ws.reqs = append(ws.reqs, wire.Request{Tuples: tuples, Seed: spec.seeds[i], Query: s.src})
		ws.want = append(ws.want, uint32(len(rows)))
		ws.replay = append(ws.replay, replayItem{req: engine.Request{Query: s.q, DCs: dcs, DB: db}, rows: len(rows)})
	}
	if b.corrupt {
		ws.want[0]++
	}
	ws.eng = engine.New(engine.Config{Tracer: tr})
	var ev wire.Evaluator = ws.eng
	if timed {
		ws.ev = newTimedEval(ws.eng, tr, idBase)
		ev = ws.ev
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ws.eng.Close()
		return nil, err
	}
	ws.srv = wire.NewServer(ev, wire.ServerConfig{Tuples: tuples})
	go func() { ws.served <- ws.srv.Serve(ln) }()
	if ws.client, err = wire.Dial(ln.Addr().String()); err != nil {
		ws.close()
		return nil, err
	}
	warm := newMixer(b.rng(2), spec.weights)
	for i := 0; i < len(spec.shapes)+wireWarmRounds*len(warm.block); i++ {
		k := i
		if k >= len(spec.shapes) {
			k = warm.next()
		}
		if _, err := ws.do(ws.reqs[k]); err != nil {
			ws.close()
			return nil, fmt.Errorf("warm-up %s: %w", spec.shapes[k].name, err)
		}
	}
	return ws, nil
}

// do sends one request, recording a client span when traced, and fails
// on a transport error or a non-OK status.
func (ws *wireSystem) do(req wire.Request) (wire.Response, error) {
	ws.sent++
	t0 := time.Now()
	resp, err := ws.client.Do(context.Background(), req)
	if ws.traced {
		ws.spans = append(ws.spans, benchSpan{name: wireSpan, req: ws.sent, start: t0, end: time.Now()})
	}
	if err == nil && resp.Status != wire.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, resp.Err)
	}
	return resp, err
}

func (ws *wireSystem) close() {
	if ws.client != nil {
		ws.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ws.srv.Shutdown(ctx) //nolint:errcheck // teardown; Serve's result is awaited below
	<-ws.served
	ws.eng.Close()
}

func (ws *wireSystem) engine() *engine.Engine    { return ws.eng }
func (ws *wireSystem) evaluator() *timedEval     { return ws.ev }
func (ws *wireSystem) replayItems() []replayItem { return ws.replay }
func (ws *wireSystem) benchSpans() []benchSpan   { return ws.spans }

// wireObs is one measured response, kept for checking after the phase.
type wireObs struct {
	shape int
	resp  wire.Response
	err   error
}

// drive runs the closed loop for dur and checks every response
// afterwards.
func (ws *wireSystem) drive(dur time.Duration, out *outcome) phase {
	ph := phase{byShape: make([]samples, len(ws.spec.shapes))}
	var seen []wireObs
	start := time.Now()
	end := start.Add(dur)
	last := start
	for last.Before(end) {
		k := ws.mix.next()
		t0 := time.Now()
		resp, err := ws.do(ws.reqs[k])
		last = time.Now()
		d := last.Sub(t0)
		ph.lat = append(ph.lat, d)
		ph.at = append(ph.at, last.Sub(start))
		ph.byShape[k] = append(ph.byShape[k], d)
		ph.rtt += d
		seen = append(seen, wireObs{shape: k, resp: resp, err: err})
	}
	ph.n, ph.elapsed = int64(len(seen)), last.Sub(start)

	out.attempted += ph.n
	for _, o := range seen {
		s := ws.spec.shapes[o.shape]
		if o.err != nil {
			out.failed++
			continue
		}
		if o.resp.Tier != s.tier() {
			ph.fallbacks++
		}
		if o.resp.Rows != ws.want[o.shape] || o.resp.Tier != s.tier() {
			out.mismatch("hot-wire %s: rows %d tier %q, want rows %d tier %q",
				s.name, o.resp.Rows, o.resp.Tier, ws.want[o.shape], s.tier())
		}
	}
	return ph
}

// mixer yields shape indices in shuffled blocks that hold each shape
// exactly weight times, so every stretch of traffic has the mix's
// proportions.
type mixer struct {
	rng   *rand.Rand
	block []int
	i     int
}

func newMixer(rng *rand.Rand, weights []int) *mixer {
	m := &mixer{rng: rng}
	for k, w := range weights {
		for j := 0; j < w; j++ {
			m.block = append(m.block, k)
		}
	}
	m.i = len(m.block)
	return m
}

func (m *mixer) next() int {
	if m.i == len(m.block) {
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
		m.i = 0
	}
	m.i++
	return m.block[m.i-1]
}

func runHotWire(b *bench) (*outcome, error) {
	var shapes []shape
	var weights []int
	for _, m := range wireMix {
		shapes = append(shapes, m.s)
		weights = append(weights, m.weight)
	}
	spec, err := newWireSpec(b, shapes, weights)
	if err != nil {
		return nil, err
	}
	var templates []engine.Request
	for i, s := range shapes {
		if !s.full {
			continue
		}
		db, dcs, err := generate(s, spec.seeds[i])
		if err != nil {
			return nil, err
		}
		templates = append(templates, engine.Request{Query: s.q, DCs: dcs, DB: db})
	}
	return runHot(b, hotWorkload{
		start: func(tr *obs.Tracer, idBase int64) (hotSystem, error) {
			return startWire(b, spec, tr, tr != nil, idBase)
		},
		templates:  templates,
		window:     time.Second, // about 2000 requests
		tailQ:      0.99,
		inSituWire: true,
		report: func(phases []phase) {
			all := pooled(phases)
			for k, s := range shapes {
				lat := all.byShape[k].sorted()
				fmt.Printf("# hot-wire %-9s p50 %s, p99 %s\n", s.name, lat.describe(0.5), lat.describe(0.99))
			}
		},
	})
}

// wireReplayRequests is how many round trips wireReplay times.
const wireReplayRequests = 600

// wireReplay measures the wire layer's self time for the workloads that
// do not use the wire: the compiled shapes, in equal shares, over one
// connection to a fresh default engine, as client round trip minus
// Submit→result.
func wireReplay(b *bench) (time.Duration, error) {
	weights := make([]int, len(compiledShapes))
	for i := range weights {
		weights[i] = 1
	}
	spec, err := newWireSpec(b, compiledShapes, weights)
	if err != nil {
		return 0, err
	}
	ws, err := startWire(b, spec, nil, true, 0)
	if err != nil {
		return 0, err
	}
	defer ws.close()
	n0, tot0 := ws.ev.n.Load(), ws.ev.total.Load()
	var rtt time.Duration
	for i := 0; i < wireReplayRequests; i++ {
		t0 := time.Now()
		_, err := ws.do(ws.reqs[ws.mix.next()])
		rtt += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("wire replay: %w", err)
		}
	}
	submit := time.Duration(ws.ev.total.Load()-tot0) / time.Duration(ws.ev.n.Load()-n0)
	return rtt/wireReplayRequests - submit, nil
}
