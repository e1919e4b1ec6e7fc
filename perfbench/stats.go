package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does with its default
// "exclusive" method, so spreads printed here match the ones an outside
// script computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		// Python's formula verbatim: j is clamped to 1..ld-1 and delta is
		// not, so small samples extrapolate as Python's do.
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailLadder lists the percentiles tail tries, highest first, in tenths
// of a percent so ranks are exact integers.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tail returns the highest percentile in tailLadder that has at least
// minBeyond samples above its rank, and that percentile's value (nearest
// rank). failed counts requests that failed or were refused: they rank
// beyond every latency, so a percentile reaching into them reads +Inf.
// ok is false when even the median has fewer than minBeyond samples
// beyond it.
func tail(xs []float64, failed, minBeyond int) (pct, v float64, ok bool) {
	s := sorted(xs)
	for i := 0; i < failed; i++ {
		s = append(s, math.Inf(1))
	}
	n := len(s)
	for _, pm := range tailLadder {
		rank := (pm*n + 999) / 1000 // 1-based nearest rank, ceil(pm*n/1000)
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return float64(pm) / 10, s[rank-1], true
	}
	return 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// interval is a half-open [start, end) stretch of a trace's time axis.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the parent. Overlapping children (parallel
// work under one parent) are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
