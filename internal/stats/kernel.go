package stats

import (
	"math"
	"sort"

	"relperf/internal/xrand"
)

// This file is the index-space bootstrap kernel: the hot path of the
// bootstrap comparator rewritten to sort each base sample exactly once and
// never sort a resample again.
//
// The classic kernel materializes every resample as values and sorts it
// before reading quantiles — O(N log N) per round at best, O(N²) with the
// insertion sort that wins at small N, and either way the dominant cost of
// a study once the spec schema admits large-N workloads. The index-space
// kernel observes that a resample of a fixed base sample is fully
// described by a multiset of base indices: sort the base once, map each
// drawn index to its rank in the sorted base, counting-sort the rank
// multiset in O(N), and read every requested quantile off the sorted base
// values in one prefix walk over the counts (Quantiles). The walk visits
// ranks in ascending order, so an ascending quantile list costs one pass
// that stops at the highest requested rank, however many quantiles it
// holds. Per round that leaves the N-slot reset, the N draws and at most
// one walk.
//
// Determinism contract: the kernel consumes the exact xrand draw sequence
// of xrand.Rand.Resample (len(base) Intn(len(base)) calls per resample)
// and reproduces, bit for bit, every order statistic of the value-sorted
// resample — the drawn value for index i is base[i] = Sorted()[rank[i]],
// so the sorted resample is the same float64 sequence either way, and the
// quantile interpolation below is the same arithmetic as QuantileSorted.
// A value-space reference implementation lives in the tests, the fuzz
// target and the benchmark suite to keep this equivalence pinned.

// SortedSample is a base sample sorted exactly once, together with the
// original-index → sorted-rank permutation that lets index-space resampling
// replay the exact value sequence of a value-space resample. It is
// immutable after construction and safe for concurrent use; per-resample
// mutable state lives in BootKernel.
type SortedSample struct {
	values []float64 // ascending copy of the base sample
	rank   []int32   // rank[i] = position of base[i] in values
}

// NewSortedSample copies and sorts xs (ties keep their original relative
// order, which never matters for the value sequence: tied values are
// identical floats). NaNs order first, matching sort.Float64s, so even
// unvalidated inputs sort the same way the value-space paths do.
func NewSortedSample(xs []float64) *SortedSample {
	n := len(xs)
	s := &SortedSample{
		values: make([]float64, n),
		rank:   make([]int32, n),
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := xs[idx[a]], xs[idx[b]]
		return va < vb || (math.IsNaN(va) && !math.IsNaN(vb))
	})
	for r, i := range idx {
		s.values[r] = xs[i]
		s.rank[i] = int32(r)
	}
	return s
}

// N returns the sample size.
func (s *SortedSample) N() int { return len(s.values) }

// Values returns the ascending base values. The caller must not modify the
// returned slice.
func (s *SortedSample) Values() []float64 { return s.values }

// Quantile returns the q-th type-7 quantile of the base sample itself
// (QuantileSorted over the sorted values).
func (s *SortedSample) Quantile(q float64) float64 {
	return QuantileSorted(s.values, q)
}

// BootKernel draws bootstrap resamples of one SortedSample in index space.
// It owns the per-resample counting scratch, so one kernel must not be used
// concurrently; concurrent engines hold one kernel per goroutine over the
// same shared SortedSample.
type BootKernel struct {
	base   *SortedSample
	counts []int32 // counts[r] = multiplicity of sorted rank r in the resample
}

// NewBootKernel returns a kernel over base.
func NewBootKernel(base *SortedSample) *BootKernel {
	return &BootKernel{base: base, counts: make([]int32, base.N())}
}

// Base returns the shared sorted sample the kernel resamples. Engines that
// must hold two independent resamples of one base (a sample compared
// against itself) build a second kernel over the same Base.
func (k *BootKernel) Base() *SortedSample { return k.base }

// Resample draws one bootstrap resample (size N, with replacement) as an
// index multiset, consuming exactly the draw sequence of
// xrand.Rand.Resample over the original sample: N calls of Intn(N), each
// drawn index mapped to its sorted rank. The counting sort is implicit —
// incrementing counts[rank] IS the sort.
func (k *BootKernel) Resample(rng *xrand.Rand) {
	counts := k.counts
	clear(counts)
	rank := k.base.rank
	n := len(rank)
	for i := 0; i < n; i++ {
		counts[rank[rng.Intn(n)]]++
	}
}

// Quantiles fills out[i] with the qs[i]-th type-7 quantile of the current
// resample, each bit-identical to QuantileSorted over the value-sorted
// resample. qs must be ascending; entries that are NaN or outside [0, 1]
// yield NaN (as they do in QuantileSorted) and are skipped by the order
// check. One prefix walk over the counts serves every quantile: the walk
// only moves forward, reads each quantile's two bracketing order
// statistics as it passes them, and stops at the highest requested rank.
// The interpolation is QuantileSorted's arithmetic, so ties, ±Inf and NaN
// base values come out exactly as they do there. Call it after Resample;
// out must be at least as long as qs.
func (k *BootKernel) Quantiles(qs, out []float64) {
	counts := k.counts
	values := k.base.values
	n := len(counts)
	r := -1  // rank the walk stands on
	cum := 0 // draws at ranks <= r
	prev := 0.0
	for i, q := range qs {
		if n == 0 || !(q >= 0 && q <= 1) {
			out[i] = math.NaN()
			continue
		}
		if q < prev {
			panic("stats: BootKernel.Quantiles needs ascending quantiles")
		}
		prev = q
		h := q * float64(n-1)
		lo := int(math.Floor(h))
		for cum <= lo {
			r++
			cum += int(counts[r])
		}
		vlo := values[r]
		if lo+1 >= n {
			// q == 1 (or N == 1): the resample maximum.
			out[i] = vlo
			continue
		}
		vhi := vlo
		if cum <= lo+1 {
			// The lo-th statistic exhausted rank r: the hi-th is the
			// next populated rank.
			r2 := r + 1
			for counts[r2] == 0 {
				r2++
			}
			vhi = values[r2]
		}
		frac := h - float64(lo)
		out[i] = vlo + frac*(vhi-vlo)
	}
}

// SortSmall sorts xs in place with insertion sort. Performance-measurement
// buffers are short (N is typically 30–500) and often nearly sorted, which
// makes insertion sort faster than sort.Float64s here and allocation-free.
// It is the one small-slice sort shared by the bootstrap fallback paths;
// large or adversarial inputs belong to sort.Float64s.
func SortSmall(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
