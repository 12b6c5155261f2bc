package compare

// SketchComparator is the sketch-mode comparator: a deterministic,
// quantile-vote version of the paper's comparison for campaigns summarized
// into stats.Sketch instead of materialized samples. It reads the configured
// quantiles off both sketches (or, through the Comparator interface, off raw
// samples exactly) and converts the per-quantile win rate into the same
// three-way outcome as Bootstrap's threshold — but with no resampling: the
// sketch already carries the sampling error story (stats.SketchEpsilon), so
// the comparison itself is a pure function of the two summaries.

import (
	"relperf/internal/stats"
)

// SketchComparator compares quantile summaries. The zero value uses the
// package defaults (DefaultQuantiles, DefaultMargin). It is deterministic
// and stateless: Fork returns the comparator itself, so parallel clustering
// repetitions share it safely.
type SketchComparator struct {
	// Quantiles are evaluated on both summaries (default 0.25, 0.5, 0.75).
	Quantiles []float64
	// Margin is the half-width of the equivalence band around 0.5 (default
	// 0.3), interpreted exactly as Bootstrap.Margin.
	Margin float64
}

// quantileSet resolves the configured quantiles, falling back to the
// package defaults.
func (c SketchComparator) quantileSet() []float64 {
	if len(c.Quantiles) == 0 {
		return DefaultQuantiles
	}
	return c.Quantiles
}

// winRate counts, value pair by value pair, how often a's quantile is
// strictly below b's (ties count 1/2) — the same vote Bootstrap runs per
// resample, evaluated once on the summaries.
func winRate(qa, qb []float64) float64 {
	var wins float64
	for i := range qa {
		switch {
		case qa[i] < qb[i]:
			wins++
		case qa[i] == qb[i]:
			wins += 0.5
		}
	}
	return wins / float64(len(qa))
}

// threshold maps a win rate onto the three-way outcome with Bootstrap's
// band semantics.
func (c SketchComparator) threshold(r float64) Outcome {
	margin := c.Margin
	if margin <= 0 {
		margin = DefaultMargin
	}
	switch {
	case r >= 0.5+margin:
		return Better
	case r <= 0.5-margin:
		return Worse
	default:
		return Equivalent
	}
}

// CompareSketches decides the relative performance of two summarized
// campaigns. Deterministic: equal sketches always produce equal outcomes.
func (c SketchComparator) CompareSketches(a, b *stats.Sketch) (Outcome, error) {
	if a == nil || b == nil || a.N() == 0 || b.N() == 0 {
		return Equivalent, ErrBadSample
	}
	qs := c.quantileSet()
	qa := make([]float64, len(qs))
	qb := make([]float64, len(qs))
	for i, q := range qs {
		qa[i] = a.Quantile(q)
		qb[i] = b.Quantile(q)
	}
	return c.threshold(winRate(qa, qb)), nil
}

// Compare implements Comparator over raw samples with the same quantile
// vote, evaluated on the exact type-7 quantiles — the semantics a sketch
// converges to as k grows.
func (c SketchComparator) Compare(a, b []float64) (Outcome, error) {
	if len(a) == 0 || len(b) == 0 {
		return Equivalent, ErrBadSample
	}
	qs := c.quantileSet()
	return c.threshold(winRate(stats.Quantiles(a, qs), stats.Quantiles(b, qs))), nil
}

// Fork implements Comparator; the comparator is deterministic and stateless.
func (c SketchComparator) Fork(uint64) Comparator { return c }
