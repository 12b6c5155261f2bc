package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the linearly interpolated q-quantile of sorted values
// (type 7, as numpy and R default to).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ms, us and secs convert durations to float metric values.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// windowRates is the rate of succeeded ops in each whole window of length
// win within the first d of the phase, by completion time; ops still in
// flight at d count in none. A phase shorter than win is one window.
func windowRates(results []opResult, win, d time.Duration) []float64 {
	win = min(win, d)
	counts := make([]int, int(d/win))
	for _, r := range results {
		if k := int(r.done / win); r.ok && k < len(counts) {
			counts[k]++
		}
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / win.Seconds()
	}
	return out
}

// durs converts durations with f.
func durs(ds []time.Duration, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}
