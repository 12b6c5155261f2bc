package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"relperf/internal/xrand"
)

// lognormalSample builds a deterministic right-skewed sample, the shape of
// measured execution times.
func lognormalSample(rng *xrand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.LogNormal(0, 0.2)
	}
	return xs
}

func TestSortedSampleValuesAndRanks(t *testing.T) {
	xs := []float64{3, 1, 2, 2, 5}
	s := NewSortedSample(xs)
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	for i, v := range s.Values() {
		if v != want[i] {
			t.Fatalf("Values()[%d] = %v, want %v", i, v, want[i])
		}
	}
	// rank must be a permutation mapping each original value onto itself.
	seen := make([]bool, len(xs))
	for i, r := range s.rank {
		if seen[r] {
			t.Fatalf("rank %d assigned twice", r)
		}
		seen[r] = true
		if s.values[r] != xs[i] {
			t.Fatalf("values[rank[%d]] = %v, want %v", i, s.values[r], xs[i])
		}
	}
	if s.N() != len(xs) {
		t.Fatalf("N() = %d", s.N())
	}
	if got := s.Quantile(0.5); got != Median(xs) {
		t.Fatalf("base Quantile(0.5) = %v, want %v", got, Median(xs))
	}
}

// assertQuantilesMatch fails unless the kernel's batched quantiles of its
// current resample equal QuantileSorted over sorted, the same resample
// drawn in value space and sorted, quantile by quantile (NaN matching NaN).
func assertQuantilesMatch(t *testing.T, k *BootKernel, sorted, qs []float64, ctx string) {
	t.Helper()
	got := make([]float64, len(qs))
	k.Quantiles(PlanQuantiles(qs, k.Base().N(), nil), make([]int32, RanksLen(k.Base().N())), got)
	for i, q := range qs {
		want := QuantileSorted(sorted, q)
		if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			t.Fatalf("%s q=%v: kernel %v != reference %v", ctx, q, got[i], want)
		}
	}
}

// TestBootKernelMatchesValueSpaceResample is the determinism contract of the
// index-space kernel: for equal generator states, every quantile of the
// index-space resample is bit-identical to QuantileSorted over the
// value-space resample (Resample + sort), at every tested N, across one and
// several draw batches. Repeated quantiles read the same positions; the
// body list, without 1, stops the write-out short of the top rank.
func TestBootKernelMatchesValueSpaceResample(t *testing.T) {
	full := []float64{0, 0, 0.01, 0.25, 0.5, 0.5, 0.75, 0.99, 1, 1}
	body := []float64{0.25, 0.5, 0.75}
	for _, n := range []int{1, 2, 3, 10, drawBatch, drawBatch + 1, 50, 500, 5000} {
		xs := lognormalSample(xrand.New(uint64(n)), n)
		k := NewBootKernel(NewSortedSample(xs))
		rngIdx := xrand.New(42)
		rngVal := xrand.New(42)
		buf := make([]float64, n)
		rounds := 50
		if n >= 5000 {
			rounds = 5
		}
		for round := 0; round < rounds; round++ {
			k.Resample(rngIdx)
			rngVal.Resample(buf, xs)
			SortSmall(buf)
			for _, qs := range [][]float64{full, body} {
				assertQuantilesMatch(t, k, buf, qs, fmt.Sprintf("N=%d round=%d qs=%v", n, round, qs))
			}
		}
	}
}

func TestBootKernelTiedValues(t *testing.T) {
	// Heavy ties exercise the rank assignment and the write-out of
	// multi-count ranks, including several quantiles landing on one rank.
	xs := []float64{2, 2, 1, 1, 1, 3, 2, 1}
	k := NewBootKernel(NewSortedSample(xs))
	rngIdx := xrand.New(9)
	rngVal := xrand.New(9)
	buf := make([]float64, len(xs))
	for round := 0; round < 200; round++ {
		k.Resample(rngIdx)
		rngVal.Resample(buf, xs)
		SortSmall(buf)
		assertQuantilesMatch(t, k, buf, []float64{0, 0.25, 0.5, 0.75, 1}, fmt.Sprintf("round=%d", round))
	}
}

// TestBootKernelLongRuns: a rank drawn more times than one rankRun block
// holds takes the copy loop; small samples draw such runs often enough to
// pin them against the value-space resample at every position.
func TestBootKernelLongRuns(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 6, 3}
	k := NewBootKernel(NewSortedSample(xs))
	rngIdx, rngVal := xrand.New(21), xrand.New(21)
	buf := make([]float64, len(xs))
	qs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	long := 0
	for round := 0; round < 20000 && long < 20; round++ {
		k.Resample(rngIdx)
		rngVal.Resample(buf, xs)
		SortSmall(buf)
		for _, c := range k.counts {
			if int(c) > len(rankRun{}) {
				long++
				assertQuantilesMatch(t, k, buf, qs, fmt.Sprintf("round=%d counts=%v", round, k.counts))
				break
			}
		}
	}
	if long < 20 {
		t.Fatalf("only %d resamples with a run longer than %d", long, len(rankRun{}))
	}
}

// TestSortedSampleNaNOrdering: NaNs must order exactly as sort.Float64s
// orders them (first), so sorted views never silently diverge from the
// copy-and-sort value paths even on unvalidated input.
func TestSortedSampleNaNOrdering(t *testing.T) {
	xs := []float64{2, math.NaN(), 1, math.NaN(), 3}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	got := NewSortedSample(xs).Values()
	for i := range want {
		if want[i] != got[i] && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
			t.Fatalf("Values()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBootKernelQuantileEdgeCases(t *testing.T) {
	k := NewBootKernel(NewSortedSample([]float64{1, 2, 3}))
	k.Resample(xrand.New(1))
	out := make([]float64, 4)
	k.Quantiles(PlanQuantiles([]float64{-0.1, 0.5, math.NaN(), 1.1}, 3, nil), make([]int32, RanksLen(3)), out)
	if !math.IsNaN(out[0]) || math.IsNaN(out[1]) || !math.IsNaN(out[2]) || !math.IsNaN(out[3]) {
		t.Fatalf("out-of-range and NaN q must yield NaN, in-range q a value: %v", out)
	}
	empty := NewBootKernel(NewSortedSample(nil))
	empty.Resample(xrand.New(1))
	empty.Quantiles(PlanQuantiles([]float64{0.5}, 0, nil), make([]int32, RanksLen(0)), out)
	if !math.IsNaN(out[0]) {
		t.Fatal("empty kernel must yield NaN")
	}
	one := NewBootKernel(NewSortedSample([]float64{7}))
	one.Resample(xrand.New(2))
	one.Quantiles(PlanQuantiles([]float64{0, 0.5, 1}, 1, nil), make([]int32, RanksLen(1)), out)
	if out[0] != 7 || out[1] != 7 || out[2] != 7 {
		t.Fatalf("single-element kernel must return the element: %v", out[:3])
	}
}

// TestBootKernelQuantilesRejectsDescending: Quantiles stops writing out the
// sorted resample at the last planned position, so a descending list is a
// caller bug that must not return wrong values; the plan refuses it.
func TestBootKernelQuantilesRejectsDescending(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending quantiles did not panic")
		}
	}()
	PlanQuantiles([]float64{0.75, 0.25}, 3, nil)
}

// TestBootKernelQuantilesRejectsForeignPlan: a plan fixes the ranks of one
// sample size, so reading it off a kernel of another size must panic
// rather than return the wrong order statistics.
func TestBootKernelQuantilesRejectsForeignPlan(t *testing.T) {
	k := NewBootKernel(NewSortedSample([]float64{1, 2, 3}))
	k.Resample(xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("a plan for N=4 was read off an N=3 kernel")
		}
	}()
	k.Quantiles(PlanQuantiles([]float64{0.5}, 4, nil), make([]int32, RanksLen(4)), make([]float64, 1))
}

// TestBootKernelResampleDrawSequence: the kernel must consume exactly the
// Intn sequence of xrand.Rand.Resample, so a generator shared between
// interleaved index- and value-space stages stays in lockstep.
func TestBootKernelResampleDrawSequence(t *testing.T) {
	xs := lognormalSample(xrand.New(3), 40)
	k := NewBootKernel(NewSortedSample(xs))
	a := xrand.New(11)
	b := xrand.New(11)
	buf := make([]float64, len(xs))
	for round := 0; round < 10; round++ {
		k.Resample(a)
		b.Resample(buf, xs)
		if a.Uint64() != b.Uint64() {
			t.Fatalf("round %d: generators diverged", round)
		}
		// Consume the probe draw on both sides identically.
	}
}

// TestBootKernelSkipDrawSequence: Skip must advance the generator exactly
// as Resample does and leave the last resample's counts untouched, so a
// comparison that stops scoring early still ends on the full loop's stream.
func TestBootKernelSkipDrawSequence(t *testing.T) {
	for _, n := range []int{25, 2*drawBatch + 5} {
		xs := lognormalSample(xrand.New(5), n)
		k := NewBootKernel(NewSortedSample(xs))
		skipped, drawn := xrand.New(12), xrand.New(12)
		k.Resample(skipped)
		drawn.Resample(make([]float64, len(xs)), xs)
		before := append([]int32(nil), k.counts...)
		buf := make([]float64, len(xs))
		for round := 0; round < 10; round++ {
			k.Skip(skipped)
			drawn.Resample(buf, xs)
		}
		if skipped.Uint64() != drawn.Uint64() {
			t.Fatalf("N=%d: Skip consumed a different number of draws than Resample", n)
		}
		for r, c := range k.counts {
			if c != before[r] {
				t.Fatalf("N=%d: Skip changed counts[%d]: %d -> %d", n, r, before[r], c)
			}
		}
	}
}

func BenchmarkBootKernelResampleQuantiles(b *testing.B) {
	xs := lognormalSample(xrand.New(1), 500)
	k := NewBootKernel(NewSortedSample(xs))
	rng := xrand.New(2)
	plan := PlanQuantiles([]float64{0.25, 0.5, 0.75}, len(xs), nil)
	out := make([]float64, len(plan.steps))
	ranks := make([]int32, RanksLen(len(xs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Resample(rng)
		k.Quantiles(plan, ranks, out)
	}
}
