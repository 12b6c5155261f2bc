// Package stats provides the statistical substrate for relative-performance
// analysis: descriptive summaries, quantiles, histograms, empirical CDFs,
// two-sample tests and a bootstrap engine.
//
// All functions treat their float64-slice inputs as samples of performance
// measurements. Unless documented otherwise they do not mutate inputs.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned by operations that require at least one value.
var ErrEmptySample = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN when
// len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value, or NaN for an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value, or NaN for an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th quantile (q in [0,1]) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It copies and sorts internally; use QuantileSorted on pre-sorted data in
// hot paths. Returns NaN for an empty sample or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile on data already sorted ascending.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Quantiles evaluates several quantiles with a single sort.
func Quantiles(xs []float64, qs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = QuantileSorted(s, q)
	}
	return out
}

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N                   int
	Mean, StdDev        float64
	Min, Q1, Median, Q3 float64
	Max                 float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary
// with NaN statistics and N == 0.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Mean, s.StdDev = nan, nan
		s.Min, s.Q1, s.Median, s.Q3, s.Max = nan, nan, nan, nan, nan
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Q1 = QuantileSorted(sorted, 0.25)
	s.Median = QuantileSorted(sorted, 0.5)
	s.Q3 = QuantileSorted(sorted, 0.75)
	return s
}

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F1(x) - F2(x)| computed exactly over the pooled sample.
func KSStatistic(a, b []float64) float64 {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	return KSStatisticSorted(sa, sb)
}

// KSStatisticSorted is KSStatistic on samples already sorted ascending; the
// allocation- and sort-free form for engines that sort each base sample
// once (SortedSample) and compare it many times.
func KSStatisticSorted(sa, sb []float64) float64 {
	na, nb := float64(len(sa)), float64(len(sb))
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		v := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] <= v {
			i++
		}
		for j < len(sb) && sb[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// KSPValue returns the asymptotic p-value of the two-sample KS test with
// statistic d and sample sizes n and m, using the Kolmogorov distribution
// tail series. Adequate for n, m >= ~8.
func KSPValue(d float64, n, m int) float64 {
	if d <= 0 {
		return 1
	}
	ne := float64(n) * float64(m) / float64(n+m)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	// Q_KS(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2)
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// MannWhitneyU computes the Mann–Whitney U statistic for sample a against b
// (number of pairs (x in a, y in b) with x < y, counting ties as 1/2) and the
// two-sided normal-approximation p-value with tie correction.
func MannWhitneyU(a, b []float64) (u, p float64) {
	type tagged struct {
		v    float64
		from int // 0 = a, 1 = b
	}
	pool := make([]tagged, 0, len(a)+len(b))
	for _, v := range a {
		pool = append(pool, tagged{v, 0})
	}
	for _, v := range b {
		pool = append(pool, tagged{v, 1})
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].v < pool[j].v })

	// Assign midranks, tracking tie groups for the variance correction.
	ranks := make([]float64, len(pool))
	var tieCorrection float64
	for i := 0; i < len(pool); {
		j := i
		for j < len(pool) && pool[j].v == pool[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieCorrection += t*t*t - t
		i = j
	}

	var ra float64 // rank sum of sample a
	for i, tg := range pool {
		if tg.from == 0 {
			ra += ranks[i]
		}
	}
	na, nb := float64(len(a)), float64(len(b))
	u1 := ra - na*(na+1)/2 // U for a (pairs where a > b, ties 1/2)
	u = u1

	// Normal approximation.
	mu := na * nb / 2
	n := na + nb
	sigma2 := na * nb / 12 * ((n + 1) - tieCorrection/(n*(n-1)))
	if sigma2 <= 0 {
		// All values tied: no evidence of difference.
		return u, 1
	}
	z := (u - mu) / math.Sqrt(sigma2)
	p = 2 * normalTail(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return u, p
}

// normalTail returns P[Z > z] for standard normal Z.
func normalTail(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// Histogram is a fixed-width binning of a sample, used for rendering the
// paper's Figure-1-style distribution plots in ASCII.
type Histogram struct {
	Lo, Hi float64 // range covered; values outside are clamped into end bins
	Counts []int
	Total  int
}

// NewHistogram bins xs into nbins equal-width bins spanning [lo, hi].
func NewHistogram(xs []float64, lo, hi float64, nbins int) (*Histogram, error) {
	if nbins <= 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	if !(hi > lo) {
		return nil, errors.New("stats: histogram range must have hi > lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h, nil
}

// Add bins one value, clamping out-of-range values into the end bins.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	i := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Counts[i]++
	h.Total++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Mode returns the index of the most populated bin (first on ties).
func (h *Histogram) Mode() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best
}
