package stats

import (
	"errors"
	"math"
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
