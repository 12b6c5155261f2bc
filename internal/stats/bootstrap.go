package stats

import (
	"relperf/internal/xrand"
)

// Statistic maps a sample to a scalar summary. The canonical statistics used
// by the relative-performance methodology are quantiles, but any reduction
// (mean, trimmed mean, minimum) fits.
type Statistic func(sorted []float64) float64

// Bootstrap draws B resamples (with replacement, same size as xs) and returns
// the statistic evaluated on each, in draw order. The resamples are sorted
// before stat is applied, so quantile statistics are cheap.
func Bootstrap(rng *xrand.Rand, xs []float64, stat Statistic, B int) []float64 {
	return BootstrapInto(make([]float64, B), rng, xs, stat, make([]float64, len(xs)))
}

// BootstrapInto is the allocation-free core of Bootstrap: it evaluates stat
// on len(out) resamples drawn into scratch (which must have len(xs)
// elements) and writes the draws to out, returning out. Callers running
// repeated bootstrap campaigns preallocate both buffers once.
func BootstrapInto(out []float64, rng *xrand.Rand, xs []float64, stat Statistic, scratch []float64) []float64 {
	for b := range out {
		rng.Resample(scratch, xs)
		SortSmall(scratch)
		out[b] = stat(scratch)
	}
	return out
}
