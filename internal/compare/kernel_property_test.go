package compare

import (
	"testing"

	"relperf/internal/comparetest"
	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// The executable specification of the hot path — the pre-index-space
// kernel: materialize each resample as values, insertion-sort it, read the
// quantiles — lives in internal/comparetest (one copy, shared with the
// engine-level pin and the benchmarks). The index-space kernel must
// reproduce its WinRate bit for bit at every N; this file is the
// WinRate-level contract.

// referenceOutcome thresholds a reference win rate with the default margin,
// mirroring Bootstrap.Compare.
func referenceOutcome(r float64) Outcome {
	switch {
	case r >= 0.5+DefaultMargin:
		return Better
	case r <= 0.5-DefaultMargin:
		return Worse
	default:
		return Equivalent
	}
}

// kernelTestSamples builds two overlapping log-normal samples of size n.
func kernelTestSamples(n int, seed uint64) (a, b []float64) {
	rng := xrand.New(seed)
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		a[i] = rng.LogNormal(0, 0.2)
		b[i] = 1.05 * rng.LogNormal(0, 0.2)
	}
	return a, b
}

// TestIndexKernelMatchesReference: for equal seeds the index-space WinRate
// and the Outcome sequence across repeated Compare calls (the RNG stream
// advances call over call, exactly as before) are bit-identical to the
// reference kernel, at N ∈ {10, 50, 500, 5000}.
func TestIndexKernelMatchesReference(t *testing.T) {
	for _, n := range []int{10, 50, 500, 5000} {
		rounds := DefaultRounds
		calls := 10
		if n >= 5000 {
			rounds, calls = 20, 3 // the O(N²) reference is the budget here
		}
		a, b := kernelTestSamples(n, uint64(n))
		const seed = 77
		cmp := NewBootstrap(seed)
		cmp.Rounds = rounds
		refRNG := xrand.New(seed)
		bufA := make([]float64, n)
		bufB := make([]float64, n)
		for call := 0; call < calls; call++ {
			got, err := cmp.WinRate(a, b)
			if err != nil {
				t.Fatal(err)
			}
			want := comparetest.ReferenceWinRate(refRNG, a, b, bufA, bufB, DefaultQuantiles, rounds)
			if got != want {
				t.Fatalf("N=%d call=%d: index-space WinRate %v != reference %v", n, call, got, want)
			}
			if gotO := cmp.threshold(got); gotO != referenceOutcome(want) {
				t.Fatalf("N=%d call=%d: outcome diverged", n, call)
			}
		}
	}
}

// TestAliasedSamplesMatchReference: comparing a sample against itself (one
// buffer or one view on both sides) must still draw two independent
// resamples per round, each side counting into its own half of the slab,
// bit-identical to the reference kernel — which hovers near, but almost
// never exactly at, 0.5.
func TestAliasedSamplesMatchReference(t *testing.T) {
	for _, n := range []int{10, 50, 500} {
		a, _ := kernelTestSamples(n, uint64(n))
		const seed = 6
		refRNG := xrand.New(seed)
		bufA := make([]float64, n)
		bufB := make([]float64, n)
		raw := NewBootstrap(seed)
		sorted := NewBootstrap(seed)
		sa := stats.NewSortedSample(a)
		for call := 0; call < 3; call++ {
			want := comparetest.ReferenceWinRate(refRNG, a, a, bufA, bufB, DefaultQuantiles, DefaultRounds)
			got, err := raw.WinRate(a, a)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("N=%d call=%d: aliased WinRate %v != reference %v", n, call, got, want)
			}
			gotSorted, err := sorted.WinRateSorted(sa, sa)
			if err != nil {
				t.Fatal(err)
			}
			if gotSorted != want {
				t.Fatalf("N=%d call=%d: aliased WinRateSorted %v != reference %v", n, call, gotSorted, want)
			}
		}
	}
}

// TestSortedViewsMatchRawSamples: CompareSorted/WinRateSorted over
// pre-sorted views are bit-identical to Compare/WinRate over the raw
// samples, for the bootstrap and the KS comparators.
func TestSortedViewsMatchRawSamples(t *testing.T) {
	for _, n := range []int{10, 50, 500} {
		a, b := kernelTestSamples(n, uint64(100+n))
		sa, sb := stats.NewSortedSample(a), stats.NewSortedSample(b)

		raw := NewBootstrap(5)
		sorted := NewBootstrap(5)
		for call := 0; call < 5; call++ {
			rRaw, err := raw.WinRate(a, b)
			if err != nil {
				t.Fatal(err)
			}
			rSorted, err := sorted.WinRateSorted(sa, sb)
			if err != nil {
				t.Fatal(err)
			}
			if rRaw != rSorted {
				t.Fatalf("N=%d call=%d: WinRateSorted %v != WinRate %v", n, call, rSorted, rRaw)
			}
		}

		ks := KS{}
		oRaw, err := ks.Compare(a, b)
		if err != nil {
			t.Fatal(err)
		}
		oSorted, err := ks.CompareSorted(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if oRaw != oSorted {
			t.Fatalf("N=%d: KS CompareSorted %v != Compare %v", n, oSorted, oRaw)
		}
	}
}

// TestRewrittenSampleIsNotStale: a comparator remembers nothing about a
// raw sample between calls, so a buffer rewritten in place is compared as
// it now reads. Two comparators follow one stream; after the rewrite, the
// one that saw the old contents must score exactly as the one handed
// fresh copies.
func TestRewrittenSampleIsNotStale(t *testing.T) {
	a, b := kernelTestSamples(30, 1)
	warm, fresh := NewBootstrap(2), NewBootstrap(2)
	for _, c := range []*Bootstrap{warm, fresh} {
		if _, err := c.WinRate(a, b); err != nil {
			t.Fatal(err)
		}
	}
	a[1] *= 3
	got, err := warm.WinRate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.WinRate(append([]float64(nil), a...), append([]float64(nil), b...))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("WinRate after rewriting a[1] = %v, fresh copy gives %v", got, want)
	}
}
