package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples holds exact per-request latencies (no histogram buckets), so
// any percentile is read off the sorted values.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond counts the samples ranked above the q-quantile.
func (s samples) beyond(q float64) int {
	return len(s) - int(math.Ceil(q*float64(len(s))))
}

// describe renders one percentile with its sample count and how many
// samples lie beyond it.
func (s samples) describe(q float64) string {
	return fmt.Sprintf("%.4f ms (n=%d, %d beyond)", ms(s.quantile(q)), len(s), s.beyond(q))
}

// median of a handful of repeated measurements (set-up, restart).
func median(ds []time.Duration) time.Duration {
	return samples(ds).sorted().quantile(0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// meanOf is the mean of d over n events (0 when there were none).
func meanOf(d time.Duration, n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return d / time.Duration(n)
}

// phase is what one measured stretch of traffic on one system instance
// saw.
type phase struct {
	n         int64
	elapsed   time.Duration // measured time, answer checks excluded
	lat       samples
	at        []time.Duration // when each sample completed, on the elapsed clock
	byShape   []samples       // hot-wire: latencies per mix shape
	rtt       time.Duration   // hot-wire: summed client round trips
	fallbacks int64           // requests not served by their shape's first tier
}

func (p phase) rps() float64 { return float64(p.n) / p.elapsed.Seconds() }

// windows splits the phase's samples into consecutive windows of length
// win (a trailing partial window is dropped); win 0 gives the whole
// phase as one window.
func (p phase) windows(win time.Duration) []samples {
	if win == 0 {
		return []samples{p.lat}
	}
	var out []samples
	lo := 0
	for end := win; end <= p.elapsed; end += win {
		hi := lo
		for hi < len(p.at) && p.at[hi] <= end {
			hi++
		}
		out = append(out, p.lat[lo:hi])
		lo = hi
	}
	return out
}

// pooled merges phases into one.
func pooled(phases []phase) phase {
	var all phase
	for _, p := range phases {
		all.n += p.n
		all.elapsed += p.elapsed
		all.lat = append(all.lat, p.lat...)
		all.rtt += p.rtt
		all.fallbacks += p.fallbacks
		for k, s := range p.byShape {
			if k >= len(all.byShape) {
				all.byShape = append(all.byShape, nil)
			}
			all.byShape[k] = append(all.byShape[k], s...)
		}
	}
	return all
}

// medianFloat is the median of a few per-instance figures.
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
