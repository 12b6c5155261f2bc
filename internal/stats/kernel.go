package stats

import (
	"cmp"
	"math"
	"slices"

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
// values (Quantiles) by writing out the sorted resample as ranks, a fixed
// block of stores per rank with no data-dependent branch, and reading each
// quantile's two bracketing order statistics by position. The write-out
// stops past the highest position the quantile list reads, so an
// ascending list costs one pass however many quantiles it holds. What is
// fixed for a sample size — each quantile's position and interpolation
// weight, and the list's checks — is a QuantilePlan built once per
// comparison, not once per round. A round's N draws are counted as they
// are drawn, with the generator state in registers and no draw stored
// (xrand.Rand.TallyIntns). Per round that leaves the draws, the N-slot
// reset and one write-out; a round whose outcome no longer matters only
// draws (Skip).
//
// Determinism contract: the kernel consumes the exact xrand draw sequence
// of xrand.Rand.Resample (len(base) Intn(len(base)) calls per resample,
// whether it counts them or skips them) and reproduces, bit for bit,
// every order statistic of the value-sorted resample — the drawn value for
// index i is base[i] = Sorted()[rank[i]], so the sorted resample is the
// same float64 sequence either way, and the quantile interpolation below
// is the same arithmetic as QuantileSorted. A value-space reference
// implementation lives in the tests, the fuzz target and the benchmark
// suite to keep this equivalence pinned.

// SortedSample is a base sample sorted exactly once, together with the
// original-index → sorted-rank permutation that lets index-space resampling
// replay the exact value sequence of a value-space resample. Once shared it
// is read-only and safe for concurrent use; a resample is a counts slice
// the caller owns (counts[r] = multiplicity of sorted rank r), so any
// number of goroutines resample one view, each into its own counts.
type SortedSample struct {
	values []float64 // ascending copy of the base sample
	rank   []int32   // rank[i] = position of base[i] in values
}

// NewSortedSample copies and sorts xs (see Sort).
func NewSortedSample(xs []float64) *SortedSample {
	s := new(SortedSample)
	s.Sort(xs, make([]int32, len(xs)))
	return s
}

// Sort makes s the sorted view of xs, reusing s's storage when it is large
// enough; idx is index scratch of at least len(xs). The order is stable:
// ties, which never matter for the value sequence (tied values are
// identical floats), keep their original relative order because the
// comparison breaks them by index, which also makes the order total, so
// the result is unique. NaNs order first, matching sort.Float64s, so even
// unvalidated inputs sort the same way the value-space paths do. Only the
// view's single owner may re-sort it.
func (s *SortedSample) Sort(xs []float64, idx []int32) {
	n := len(xs)
	if cap(s.values) < n {
		s.values, s.rank = make([]float64, n), make([]int32, n)
	}
	s.values, s.rank = s.values[:n], s.rank[:n]
	idx = idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int {
		if c := cmp.Compare(xs[i], xs[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	for r, i := range idx {
		s.values[r] = xs[i]
		s.rank[i] = int32(r)
	}
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

// rankRun is the block of positions Quantiles stores for every rank when
// it writes out the sorted resample. A resample count is about Poisson(1),
// so a block of four covers all but about 0.4% of ranks and only those
// take the copy loop; the next rank's block overwrites the excess.
type rankRun = [4]int32

// RanksLen is the length of the rank scratch Quantiles needs for samples
// of size n: the sorted resample plus the slack the last rank's block
// may overrun.
func RanksLen(n int) int { return n + len(rankRun{}) }

// Resample draws one bootstrap resample (size N, with replacement) into
// counts, which must hold N entries, as an index multiset, consuming
// exactly the draw sequence of xrand.Rand.Resample over the original
// sample: the N draws of Intn(N), each drawn index mapped to its sorted
// rank and counted as it is drawn (xrand.Rand.TallyIntns), so no draw is
// stored. The counting sort is implicit — incrementing counts[rank] IS
// the sort.
func (s *SortedSample) Resample(rng *xrand.Rand, counts []int32) {
	clear(counts)
	rng.TallyIntns(counts, s.rank)
}

// Skip advances rng exactly as Resample would and discards the draws, so
// the caller's counts keep the previous resample. Engines whose result no
// longer depends on the remaining rounds call it to keep the generator on
// the stream the full loop would leave.
func (s *SortedSample) Skip(rng *xrand.Rand) {
	rng.SkipIntns(s.N(), s.N())
}

// QuantileStep is one quantile of a QuantilePlan. PlanQuantiles fills it;
// the type is exported only so callers can own the storage a plan is built
// into.
type QuantileStep struct {
	lo   int32   // lower rank floor(q·(N−1)); -1 when q has no value
	last bool    // lo is the top rank: the quantile is the resample maximum
	frac float64 // q·(N−1) − lo, QuantileSorted's interpolation weight
}

// QuantilePlan is everything about a quantile list that is fixed for a
// sample size: each quantile's lower rank and interpolation weight, with
// the validity and ascending-order checks already done. Build it once with
// PlanQuantiles and read any number of resamples of that size with
// SortedSample.Quantiles.
type QuantilePlan struct {
	n     int
	top   int // highest sorted position any step reads; -1 if none
	steps []QuantileStep
}

// PlanQuantiles plans reading the qs-th type-7 quantiles off resamples of
// size n, building the steps in buf (grown only if it is too short). qs
// must be ascending; entries that are NaN or outside [0, 1] plan a NaN (as
// they yield in QuantileSorted) and are skipped by the order check, and
// every entry plans a NaN when n is 0. It panics on a descending list:
// Quantiles stops writing out the sorted resample past the last planned
// quantile's position, so that must be the highest.
func PlanQuantiles(qs []float64, n int, buf []QuantileStep) QuantilePlan {
	steps := buf[:0]
	top := -1
	prev := 0.0
	for _, q := range qs {
		if n == 0 || !(q >= 0 && q <= 1) {
			steps = append(steps, QuantileStep{lo: -1})
			continue
		}
		if q < prev {
			panic("stats: PlanQuantiles needs ascending quantiles")
		}
		prev = q
		h := float64(q * float64(n-1))
		lo := int(math.Floor(h))
		last := lo+1 >= n
		steps = append(steps, QuantileStep{
			lo:   int32(lo),
			last: last,
			frac: h - float64(lo),
		})
		top = lo
		if !last {
			top = lo + 1
		}
	}
	return QuantilePlan{n: n, top: top, steps: steps}
}

// Quantiles fills out[i] with the i-th planned quantile of the resample in
// counts, each bit-identical to QuantileSorted over the value-sorted
// resample. It writes the sorted resample into ranks — position j holds
// the sorted rank of the resample's j-th smallest value, each rank r a run
// of counts[r] positions — one rankRun block per rank, stopping past the
// plan's highest position, then reads each quantile's two bracketing
// order statistics by position. The interpolation is QuantileSorted's
// arithmetic, so ties, ±Inf and NaN base values come out exactly as they
// do there. Call it after Resample; counts and the plan must be for the
// view's sample size, ranks at least RanksLen(N) long and out at least as
// long as the quantile list the plan was built from. Resamples read one at
// a time may share one ranks scratch.
func (s *SortedSample) Quantiles(counts []int32, p QuantilePlan, ranks []int32, out []float64) {
	if p.n != s.N() || len(counts) != p.n {
		panic("stats: SortedSample.Quantiles plan or counts are for another sample size")
	}
	start := 0 // first position of rank r's run
	for r, c := range counts {
		if start > p.top {
			break
		}
		r32 := int32(r)
		*(*rankRun)(ranks[start:]) = rankRun{r32, r32, r32, r32}
		end := start + int(c)
		for j := start + len(rankRun{}); j < end; j++ {
			ranks[j] = r32
		}
		start = end
	}
	values := s.values
	for i, st := range p.steps {
		if st.lo < 0 {
			out[i] = math.NaN()
			continue
		}
		vlo := values[ranks[st.lo]]
		if st.last {
			// q == 1 (or N == 1): the resample maximum.
			out[i] = vlo
			continue
		}
		vhi := values[ranks[st.lo+1]]
		out[i] = vlo + float64(st.frac*(vhi-vlo))
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
