package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when paired samples differ in length.
var ErrLengthMismatch = errors.New("stats: paired samples must have equal length")

// KendallTau returns the Kendall rank correlation τ-b between paired
// observations, handling ties in both variables. τ ∈ [-1, 1]; 1 means the
// orderings agree exactly. Used to score predicted-vs-measured algorithm
// orderings.
func KendallTau(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	n := len(x)
	if n < 2 {
		return 0, errors.New("stats: need at least two pairs")
	}
	var concordant, discordant float64
	var tiesX, tiesY float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := x[i] - x[j]
			dy := y[i] - y[j]
			switch {
			case dx == 0 && dy == 0:
				// tied in both: contributes to neither denominator term
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case (dx > 0) == (dy > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	denomX := concordant + discordant + tiesX
	denomY := concordant + discordant + tiesY
	if denomX == 0 || denomY == 0 {
		// One variable is constant: correlation undefined; report 0.
		return 0, nil
	}
	return (concordant - discordant) / math.Sqrt(denomX*denomY), nil
}

// Midranks returns the 1-based midranks of xs (ties share the average rank).
func Midranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		mid := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	return ranks
}
