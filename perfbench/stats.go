package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a reported percentile.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, refusing when fewer than minTail samples lie above it: a p90 over
// 40 samples rests on its 4 largest values and jumps from run to run.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if above := tailAbove(n, q); above < minTail {
		return 0, fmt.Errorf("p%g over %d samples leaves %d above it, need %d", 100*q, n, above, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-tailAbove(n, q)-1], nil
}

// tailAbove is how many of n samples lie above the q-quantile.
func tailAbove(n int, q float64) int { return n - max(1, int(math.Ceil(q*float64(n)))) }

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work on a workload
// reports 0 for its rates).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
