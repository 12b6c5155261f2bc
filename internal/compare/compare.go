// Package compare implements the three-way comparison of performance
// distributions at the heart of relative-performance analysis: given two sets
// of execution-time measurements, decide whether the first algorithm is
// Better, Worse, or Equivalent to the second.
//
// The primary comparator is the bootstrap strategy of Sankaran & Bientinesi,
// "Robust ranking of equivalent algorithms via relative performance"
// (arXiv:2010.07226, Section IV), which the paper under reproduction uses
// verbatim: repeatedly resample both measurement sets, compare a vector of
// quantiles on each resample, and convert the aggregate win rate into one of
// the three outcomes. Because the resampling is random, the comparator is
// intentionally stochastic near the decision thresholds — this is what makes
// repeated clustering (Procedure 4) produce fractional relative scores such
// as the paper's "algAA is equivalent to algAD once in every three
// comparisons".
//
// Deterministic alternatives (Kolmogorov–Smirnov, Mann–Whitney, mean
// difference with bootstrap CI) are provided for the comparator-ablation
// benchmarks.
//
// # Concurrency and determinism
//
// Comparators are not safe for concurrent use (the bootstrap owns an RNG and
// scratch buffers). Every Comparator therefore also forks: Fork(seed)
// returns an independent clone whose randomness is fully determined by the
// seed, so the clustering and racing engines hand every concurrent
// repetition or pair its own deterministically-seeded comparator and
// produce bit-identical results at any worker count. The deterministic
// comparators (KS, MannWhitney, MeanThreshold, SketchComparator) are
// stateless and fork to themselves.
package compare

import (
	"errors"
	"fmt"
	"math"

	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// Outcome is the result of a three-way comparison. Measurements are
// execution times, so smaller is better throughout.
type Outcome int

const (
	// Worse means the first algorithm's distribution is significantly
	// slower than the second's.
	Worse Outcome = iota - 1
	// Equivalent means the distributions overlap too much to separate.
	Equivalent
	// Better means the first algorithm is significantly faster.
	Better
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Better:
		return "better"
	case Worse:
		return "worse"
	case Equivalent:
		return "equivalent"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Flip returns the outcome from the other algorithm's perspective.
func (o Outcome) Flip() Outcome { return -o }

// ErrBadSample is returned when a comparator receives an unusable sample.
var ErrBadSample = errors.New("compare: sample must contain at least one measurement")

// ErrBadQuantile is returned by the bootstrap comparator when a configured
// quantile is NaN or outside [0, 1]: such a quantile has no value on any
// resample, and scoring it would turn every round into a silent loss.
var ErrBadQuantile = errors.New("compare: quantile must lie in [0, 1]")

// Comparator decides the relative performance of two measurement sets.
// Implementations may be stochastic (the bootstrap comparator is); Fork is
// how callers get reproducible, independently seeded clones of one.
type Comparator interface {
	// Compare returns Better if a is significantly faster than b, Worse if
	// significantly slower, and Equivalent otherwise.
	Compare(a, b []float64) (Outcome, error)
	// Fork returns a comparator with the same decision parameters whose
	// stochastic behaviour (if any) is fully determined by seed. Engines
	// fork one comparator per repetition (or per pair), so concurrent
	// comparisons never share RNG state. Deterministic comparators may
	// simply return themselves.
	Fork(seed uint64) Comparator
}

// SortedComparator is implemented by comparators that can consume
// pre-sorted sample views, skipping every per-comparison sort of the base
// samples. Engines that hold a fixed sample set (the clustering layers,
// which compare the same measured distributions hundreds of times —
// footnote 5 of the paper) sort each sample exactly once up front and route
// all comparisons through CompareSorted. The contract is bit-identity:
// CompareSorted(NewSortedSample(a), NewSortedSample(b)) returns exactly
// what Compare(a, b) would for the same comparator state.
type SortedComparator interface {
	CompareSorted(a, b *stats.SortedSample) (Outcome, error)
}

// Bootstrap is the paper's comparator. For each of Rounds bootstrap rounds it
// draws one resample (with replacement) from each measurement set, evaluates
// the configured quantiles on both resamples, and counts, quantile by
// quantile, how often a's value is strictly below b's. The aggregate win rate
// r in [0, 1] (ties count 1/2) maps to:
//
//	r >= 0.5 + Margin  →  Better
//	r <= 0.5 - Margin  →  Worse
//	otherwise          →  Equivalent
//
// The hot path runs in index space over stats.SortedSample views: each
// base sample is sorted once (see below), resamples are drawn as
// counted index multisets on the identical xrand draw sequence as the
// classic materialize-and-sort kernel, and all configured quantiles of a
// resample are read off the sorted base in one batched pass
// (SortedSample.Quantiles) — O(N) per round instead of the insertion
// sort's O(N²), bit-identical outcomes. The pass needs ascending
// quantiles, so each call sorts a copy of Quantiles and plans it once per
// side (stats.PlanQuantiles); since a win counts 1 or ½ whatever order the
// quantiles are visited in, the list's order never changes a result. A
// quantile that is NaN or outside [0, 1] fails the call with
// ErrBadQuantile.
//
// Compare and CompareSorted seal: once the wins so far fix the outcome
// whatever the remaining rounds score, those rounds only draw (a, then b)
// and are not scored, so the outcome and the generator state after the
// call equal thresholding the full win rate. WinRate and WinRateSorted
// score every round and return the exact rate. When the two samples'
// ranges are apart (see below), every call scores nothing: every round
// would be a win, or every round a loss, so the rounds only draw and the
// exact rate, 1 or 0, is returned.
//
// Compare and WinRate sort both raw samples on every call into views the
// comparator owns: O(N log N) against the Rounds·N draws, and nothing is
// remembered between calls, so a buffer rewritten in place is simply
// compared as it now reads. Engines that compare one fixed sample set many
// times (footnote 5 of the paper) sort each sample once up front and call
// CompareSorted. Once a comparator has seen its largest samples, no call
// makes a heap allocation.
type Bootstrap struct {
	rng *xrand.Rand
	// Quantiles are evaluated on every resample; the defaults probe the
	// body of the distribution (0.25, 0.5, 0.75) so single outliers do not
	// decide a comparison.
	Quantiles []float64
	// Rounds is the number of bootstrap iterations (default 100).
	Rounds int
	// Margin is the half-width of the equivalence band around 0.5
	// (default 0.3: win rates within [0.2, 0.8] are "equivalent").
	Margin float64

	// counts is the resample counts slab, grown to the largest Na+Nb seen:
	// a's counts in counts[:Na], b's in counts[Na:Na+Nb], so a sample
	// compared against itself still draws two independent resamples, as
	// the value-space kernel did. Before scoring, the raw path sorts with
	// it as index scratch.
	counts []int32
	// raw holds the raw path's views of a and b, re-sorted every call.
	raw [2]stats.SortedSample

	// scratch, scratchSteps and ranks are score's scratch for calls too
	// large for its stack buffers, grown once and reused.
	scratch      []float64
	scratchSteps []stats.QuantileStep
	ranks        []int32
}

// Sizes of score's stack scratch: quantile lists of up to stackQuantiles
// entries and samples whose stats.RanksLen fits stackRanks (up to 60
// measurements) cost neither a call nor a Fork any allocation.
const (
	stackQuantiles = 4
	stackRanks     = 64
)

// DefaultQuantiles probe the body of the distribution.
var DefaultQuantiles = []float64{0.25, 0.5, 0.75}

// Default decision parameters. Zero-valued comparator fields normalize to
// these at Compare time; the config-fingerprinting layer normalizes with
// the same constants so that "unset" and "explicit default" configs share
// one cache identity. Keep the two in sync by never re-hardcoding them.
const (
	// DefaultRounds is the bootstrap iteration count.
	DefaultRounds = 100
	// DefaultMargin is the bootstrap equivalence half-width.
	DefaultMargin = 0.3
	// DefaultAlpha is the significance level of the KS and Mann–Whitney
	// comparators.
	DefaultAlpha = 0.05
	// DefaultRelTol is the MeanThreshold equivalence tolerance.
	DefaultRelTol = 0.02
)

// NewBootstrap returns a bootstrap comparator with the default settings and
// the given seed.
func NewBootstrap(seed uint64) *Bootstrap {
	return &Bootstrap{
		rng:       xrand.New(seed),
		Quantiles: DefaultQuantiles,
		Rounds:    DefaultRounds,
		Margin:    DefaultMargin,
	}
}

// Fork implements Comparator: the clone shares the decision parameters but
// owns a fresh generator seeded by seed and its own scratch, so forks
// are safe to use concurrently with each other and with the parent.
func (c *Bootstrap) Fork(seed uint64) Comparator {
	return &Bootstrap{
		rng:       xrand.New(seed),
		Quantiles: c.Quantiles,
		Rounds:    c.Rounds,
		Margin:    c.Margin,
	}
}

// slab returns the first n entries of the counts slab, growing it to n.
func (c *Bootstrap) slab(n int) []int32 {
	if len(c.counts) < n {
		c.counts = make([]int32, n)
	}
	return c.counts[:n]
}

// sortRaw sorts a and b into the comparator's raw views.
func (c *Bootstrap) sortRaw(a, b []float64) (sa, sb *stats.SortedSample) {
	idx := c.slab(max(len(a), len(b)))
	c.raw[0].Sort(a, idx)
	c.raw[1].Sort(b, idx)
	return &c.raw[0], &c.raw[1]
}

// score is the shared index-space hot loop: per round one index resample
// per side on the comparator's single RNG stream (a first, then b — the
// identical draw order of the classic kernel), then one batched quantile
// read per side over that side's plan of the ascending copy of Quantiles.
// It returns the wins in halves (a win adds 2, a tie 1) and the number of
// quantile comparisons, Rounds·k, so the win rate is half/2/total. Each
// side counts into its own half of the slab.
//
// With seal set, scoring stops at the first round where even winning every
// remaining comparison could not move the rate across a threshold:
// threshold is monotone in the win count, so the outcome of the partial
// count is then the outcome of the full one. The remaining rounds only
// Skip, a then b, so the generator ends where the full loop leaves it.
// The rate of a sealed count is not the full rate; only its outcome is.
func (c *Bootstrap) score(a, b *stats.SortedSample, seal bool) (half, total int, err error) {
	qs := c.Quantiles
	if len(qs) == 0 {
		qs = DefaultQuantiles
	}
	k := len(qs)
	// The ascending copy of Quantiles, each side's values per round and
	// each side's quantile plan.
	var quantBuf [3 * stackQuantiles]float64
	var stepBuf [2 * stackQuantiles]stats.QuantileStep
	buf, steps := quantBuf[:], stepBuf[:]
	if k > stackQuantiles {
		if len(c.scratch) < 3*k {
			c.scratch = make([]float64, 3*k)
			c.scratchSteps = make([]stats.QuantileStep, 2*k)
		}
		buf, steps = c.scratch, c.scratchSteps
	}
	sorted, qa, qb := buf[:k], buf[k:2*k], buf[2*k:3*k]
	for i, q := range qs {
		if !(q >= 0 && q <= 1) {
			return 0, 0, fmt.Errorf("%w: %v", ErrBadQuantile, q)
		}
		sorted[i] = q
	}
	stats.SortSmall(sorted)
	rounds := c.Rounds
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	total = rounds * k
	// Certain outcomes: when the samples' ranges are apart (see below),
	// every round scores every quantile alike, so the rounds only draw, a
	// then b, and the count is exact.
	if aBelow := below(a, b); aBelow || below(b, a) {
		for r := 0; r < rounds; r++ {
			a.Skip(c.rng)
			b.Skip(c.rng)
		}
		if aBelow {
			half = 2 * total
		}
		return half, total, nil
	}
	na, nb := a.N(), b.N()
	counts := c.slab(na + nb)
	ca, cb := counts[:na], counts[na:]
	// Both sides write their sorted resample into one ranks scratch: they
	// are read one after the other.
	var rankBuf [stackRanks]int32
	ranks := rankBuf[:]
	if need := stats.RanksLen(max(na, nb)); need > len(ranks) {
		if len(c.ranks) < need {
			c.ranks = make([]int32, need)
		}
		ranks = c.ranks
	}
	planA := stats.PlanQuantiles(sorted, na, steps[:k])
	planB := planA
	if nb != na {
		planB = stats.PlanQuantiles(sorted, nb, steps[k:2*k])
	}
	var worse, better int
	if seal {
		worse, better = c.sealBounds(total)
	}
	for r := 0; r < rounds; r++ {
		if seal {
			// Sealed when half and the most the call can still reach
			// threshold alike.
			most := half + 2*k*(rounds-r)
			if half >= better || most <= worse || (half > worse && most < better) {
				for ; r < rounds; r++ {
					a.Skip(c.rng)
					b.Skip(c.rng)
				}
				break
			}
		}
		a.Resample(c.rng, ca)
		b.Resample(c.rng, cb)
		a.Quantiles(ca, planA, ranks, qa)
		b.Quantiles(cb, planB, ranks, qb)
		for i, va := range qa {
			vb := qb[i]
			switch {
			case va < vb:
				half += 2
			case va == vb:
				half++
			}
		}
	}
	return half, total, nil
}

// below reports whether every quantile of every resample of a is strictly
// below every quantile of every resample of b, so that each round of score
// is a win for every quantile: it holds when every value of both samples
// is finite and ≥ 0 and nextUp(max a) < min b, nextUp(x) being the next
// float64 above x. Proof: a resample's type-7 quantile at q is either an
// order statistic of the resample, which lies in [min, max] of its base
// sample, or fl(vlo + fl(f·fl(vhi − vlo))) for two of its order statistics
// vlo ≤ vhi and 0 ≤ f < 1 (with a fused multiply-add, fl(vlo + f·fl(vhi −
// vlo)); the bounds below hold either way). Rounding is monotone and
// leaves representable values fixed, so with 0 ≤ vlo ≤ vhi finite:
//   - d = fl(vhi − vlo) lies in [0, vhi] and is finite, since the exact
//     difference does;
//   - f·d and its rounding lie in [0, d];
//   - so the exact sum lies in [vlo, vlo + d], and vlo + d ≤ vlo + (vhi −
//     vlo)(1 + u) = vhi + u(vhi − vlo) ≤ vhi + u·vhi < nextUp(vhi), u = 2⁻⁵³
//     being the unit roundoff (u·x < ulp(x) for every x ≥ 0, subnormals
//     included, where the subtraction is exact anyway);
//   - rounding the sum gives a value in [vlo, nextUp(vhi)].
//
// A quantile of a's resample is therefore at most nextUp(vhi) ≤
// nextUp(max a) < min b, and one of b's at least min b. NaN, ±Inf and
// negative values are outside the proof (an infinite difference times
// f = 0 is NaN, and a negative vlo breaks d ≤ vhi); the sorted views put
// NaN and -Inf first and +Inf last, so checking each side's ends covers
// every value.
func below(a, b *stats.SortedSample) bool {
	va, vb := a.Values(), b.Values()
	amax, bmin := va[len(va)-1], vb[0]
	return va[0] >= 0 && math.Nextafter(amax, math.Inf(1)) < bmin && vb[len(vb)-1] <= math.MaxFloat64
}

// rate is the win rate of half half-wins over total comparisons: the float
// expression every outcome is thresholded from. half/2 is exact, so it is
// the same float the classic kernel's running sum of 1s and ½s gives.
func rate(half, total int) float64 {
	return float64(half) / 2 / float64(total)
}

// sealBounds returns, in half-wins out of total comparisons, the most that
// still threshold to Worse (-1 if none does) and the fewest that threshold
// to Better (2·total+1 if none does). threshold∘rate is monotone in the
// count, so two binary searches over the very expression Compare
// thresholds find both exactly, once per call instead of two threshold
// calls per round.
func (c *Bootstrap) sealBounds(total int) (worse, better int) {
	lo, hi := -1, 2*total
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.threshold(rate(mid, total)) == Worse {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	worse = lo
	lo, hi = 0, 2*total+1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.threshold(rate(mid, total)) == Better {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return worse, lo
}

// WinRate runs the bootstrap and returns the aggregate rate at which a beats
// b across rounds and quantiles. Exposed for diagnostics and tests; it
// scores every round, so the rate is exact, and Compare's outcome is always
// the threshold of this value.
func (c *Bootstrap) WinRate(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrBadSample
	}
	sa, sb := c.sortRaw(a, b)
	half, total, err := c.score(sa, sb, false)
	if err != nil {
		return 0, err
	}
	return rate(half, total), nil
}

// WinRateSorted is WinRate over pre-sorted views, bit-identical to WinRate
// on the underlying raw samples for the same comparator state.
func (c *Bootstrap) WinRateSorted(a, b *stats.SortedSample) (float64, error) {
	if a.N() == 0 || b.N() == 0 {
		return 0, ErrBadSample
	}
	half, total, err := c.score(a, b, false)
	if err != nil {
		return 0, err
	}
	return rate(half, total), nil
}

// threshold maps a win rate onto the three-way outcome.
func (c *Bootstrap) threshold(r float64) Outcome {
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

// Compare implements Comparator. It seals (see score): rounds past a fixed
// outcome only advance the generator, so the outcome and the generator
// state after the call are those of thresholding WinRate.
func (c *Bootstrap) Compare(a, b []float64) (Outcome, error) {
	if len(a) == 0 || len(b) == 0 {
		return Equivalent, ErrBadSample
	}
	return c.sealed(c.sortRaw(a, b))
}

// CompareSorted implements SortedComparator, sealing like Compare.
func (c *Bootstrap) CompareSorted(a, b *stats.SortedSample) (Outcome, error) {
	if a.N() == 0 || b.N() == 0 {
		return Equivalent, ErrBadSample
	}
	return c.sealed(a, b)
}

// sealed thresholds a sealing score of a against b.
func (c *Bootstrap) sealed(a, b *stats.SortedSample) (Outcome, error) {
	half, total, err := c.score(a, b, true)
	if err != nil {
		return Equivalent, err
	}
	return c.threshold(rate(half, total)), nil
}

// KS is a deterministic comparator: two samples differ when the two-sample
// Kolmogorov–Smirnov test rejects at level Alpha; the direction is then
// decided by the medians.
type KS struct {
	// Alpha is the significance level (default 0.05).
	Alpha float64
}

// Compare implements Comparator.
func (c KS) Compare(a, b []float64) (Outcome, error) {
	if len(a) == 0 || len(b) == 0 {
		return Equivalent, ErrBadSample
	}
	alpha := c.Alpha
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	d := stats.KSStatistic(a, b)
	p := stats.KSPValue(d, len(a), len(b))
	if p >= alpha {
		return Equivalent, nil
	}
	if stats.Median(a) < stats.Median(b) {
		return Better, nil
	}
	return Worse, nil
}

// CompareSorted implements SortedComparator: the KS statistic and the
// deciding medians read off the pre-sorted views directly, skipping the
// copy-and-sort of every Compare call. Bit-identical to Compare on the raw
// samples.
func (c KS) CompareSorted(a, b *stats.SortedSample) (Outcome, error) {
	if a.N() == 0 || b.N() == 0 {
		return Equivalent, ErrBadSample
	}
	alpha := c.Alpha
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	d := stats.KSStatisticSorted(a.Values(), b.Values())
	p := stats.KSPValue(d, a.N(), b.N())
	if p >= alpha {
		return Equivalent, nil
	}
	if a.Quantile(0.5) < b.Quantile(0.5) {
		return Better, nil
	}
	return Worse, nil
}

// Fork implements Comparator; KS is deterministic and stateless, so the fork
// is the comparator itself.
func (c KS) Fork(uint64) Comparator { return c }

// MannWhitney is a deterministic comparator using the Mann–Whitney U test.
type MannWhitney struct {
	// Alpha is the significance level (default 0.05).
	Alpha float64
}

// Compare implements Comparator.
func (c MannWhitney) Compare(a, b []float64) (Outcome, error) {
	if len(a) == 0 || len(b) == 0 {
		return Equivalent, ErrBadSample
	}
	alpha := c.Alpha
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	u, p := stats.MannWhitneyU(a, b)
	if p >= alpha {
		return Equivalent, nil
	}
	// u counts pairs where a exceeds b; small u means a is faster.
	if u < float64(len(a))*float64(len(b))/2 {
		return Better, nil
	}
	return Worse, nil
}

// Fork implements Comparator; MannWhitney is deterministic and stateless.
func (c MannWhitney) Fork(uint64) Comparator { return c }

// MeanThreshold is the naive single-number baseline the paper argues
// against: compare sample means and call anything within RelTol equivalent.
// Included for the comparator ablation, where its instability under noise is
// demonstrated.
type MeanThreshold struct {
	// RelTol is the relative mean difference below which samples are
	// equivalent (default 0.02).
	RelTol float64
}

// Compare implements Comparator.
func (c MeanThreshold) Compare(a, b []float64) (Outcome, error) {
	if len(a) == 0 || len(b) == 0 {
		return Equivalent, ErrBadSample
	}
	tol := c.RelTol
	if tol <= 0 {
		tol = DefaultRelTol
	}
	ma, mb := stats.Mean(a), stats.Mean(b)
	scale := (ma + mb) / 2
	if scale <= 0 {
		scale = 1
	}
	diff := (ma - mb) / scale
	switch {
	case diff < -tol:
		return Better, nil
	case diff > tol:
		return Worse, nil
	default:
		return Equivalent, nil
	}
}

// Fork implements Comparator; MeanThreshold is deterministic and stateless.
func (c MeanThreshold) Fork(uint64) Comparator { return c }
