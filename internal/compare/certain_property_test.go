package compare

import (
	"fmt"
	"math"
	"testing"

	"relperf/internal/comparetest"
	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// certainCase is one pair of samples for the certain-outcome referee and
// whether score may decide it without scoring (below, either way round).
type certainCase struct {
	name    string
	a, b    []float64
	certain bool
}

// nextUp is the next float64 above x.
func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// spread returns n values in [lo, hi], shuffled, that include lo and, for
// n ≥ 2, hi.
func spread(rng *xrand.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = min(lo+rng.Float64()*(hi-lo), hi)
	}
	xs[0] = lo
	if n > 1 {
		xs[n-1] = hi
	}
	rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// upTo is spread for a lower sample: a single value is hi, so the sample's
// maximum is hi at every size.
func upTo(rng *xrand.Rand, n int, lo, hi float64) []float64 {
	if n == 1 {
		return []float64{hi}
	}
	return spread(rng, n, lo, hi)
}

// certainCases draws one trial's cases: a random separated pair at a
// random scale (either way round), and every edge of the shortcut's
// condition, each at random sizes in [1, 64].
func certainCases(rng *xrand.Rand) []certainCase {
	size := func() int { return 1 + rng.Intn(64) }
	scale := []float64{1e-310, 1e-3, 1, 1e300}[rng.Intn(4)]
	lo := scale * rng.Uniform(1, 2)
	hi := lo * rng.Uniform(1, 1.5)
	a := spread(rng, size(), lo, hi)
	amax := a[0]
	for _, v := range a {
		amax = max(amax, v)
	}
	gap := nextUp(nextUp(amax))
	if rng.Intn(2) == 0 {
		gap = amax * rng.Uniform(1.01, 2)
	}
	b := spread(rng, size(), gap, gap*rng.Uniform(1, 1.5))
	if rng.Intn(2) == 0 {
		a, b = b, a // the mirror case: every round a loss
	}
	sub := func(bits uint64) float64 { return math.Float64frombits(bits) }
	withAt := func(xs []float64, v float64) []float64 {
		xs[rng.Intn(len(xs))] = v
		return xs
	}
	aliased := spread(rng, size(), 1, 2)
	return []certainCase{
		{"separated", a, b, true},
		{"gap of two ulps", upTo(rng, size(), 1, 2), spread(rng, size(), nextUp(nextUp(2)), 3), true},
		{"min b = nextUp(max a)", upTo(rng, size(), 1, 2), spread(rng, size(), nextUp(2), 3), false},
		{"touching", upTo(rng, size(), 1, 2), spread(rng, size(), 2, 3), false},
		{"zeros", make([]float64, size()), spread(rng, size(), 2*nextUp(0), 1), true},
		{"zeros, min b = nextUp(0)", make([]float64, size()), spread(rng, size(), nextUp(0), 1), false},
		{"-0", withAt(spread(rng, size(), 0, 1e-300), math.Copysign(0, -1)), spread(rng, size(), 1e-299, 1), true},
		{"subnormals", upTo(rng, size(), sub(1), sub(40)), spread(rng, size(), sub(42), sub(90)), true},
		{"subnormals, adjacent", upTo(rng, size(), sub(1), sub(40)), spread(rng, size(), sub(41), sub(90)), false},
		{"negatives", spread(rng, size(), -2, -1), spread(rng, size(), 1, 2), false},
		{"negative a beside positives", withAt(spread(rng, size(), 0, 1), -1e-300), spread(rng, size(), 2, 3), false},
		{"-Inf in a", withAt(spread(rng, size(), 0, 1), math.Inf(-1)), spread(rng, size(), 2, 3), false},
		{"+Inf in a", withAt(spread(rng, size(), 2, 3), math.Inf(1)), spread(rng, size(), 0, 1), false},
		{"+Inf in b", spread(rng, size(), 0, 1), withAt(spread(rng, size(), 2, 3), math.Inf(1)), false},
		{"NaN in a", withAt(spread(rng, size(), 0, 1), math.NaN()), spread(rng, size(), 2, 3), false},
		{"NaN in b", spread(rng, size(), 0, 1), withAt(spread(rng, size(), 2, 3), math.NaN()), false},
		{"aliased", aliased, aliased, false},
	}
}

// TestCertainOutcomeMatchesReference is the referee of score's
// certain-outcome branch: on separated samples at scales from subnormal to
// 1e300 and on every edge of its condition — min b one and two ulps above
// max a, touching ranges, zeros, -0, subnormals, negatives, ±Inf, NaN and
// aliased sides — at sizes 1 to 64 and varied Rounds and quantile lists,
// the branch fires exactly where the condition says, and WinRate,
// WinRateSorted, Compare and CompareSorted agree, call after call, with
// the value-space reference (comparetest.ReferenceWinRate, which has no
// shortcut) on the rate or its threshold, and on the generator's next
// Uint64.
//
// The reference sorts each resample by insertion, which leaves a NaN where
// it was drawn, so its rate is only defined without NaN; a sample with a
// NaN is held to the branch not firing and to the generator's end state.
func TestCertainOutcomeMatchesReference(t *testing.T) {
	rng := xrand.New(2801)
	fired := map[string]int{}
	for trial := 0; trial < 60; trial++ {
		qs := sealQuantileLists[1+rng.Intn(len(sealQuantileLists)-1)]
		rounds := []int{1, 7, 100}[rng.Intn(3)]
		for _, tc := range certainCases(rng) {
			ctx := fmt.Sprintf("trial %d %s (Na=%d Nb=%d rounds=%d qs=%v)", trial, tc.name, len(tc.a), len(tc.b), rounds, qs)
			sa, sb := stats.NewSortedSample(tc.a), stats.NewSortedSample(tc.b)
			if &tc.a[0] == &tc.b[0] {
				sb = sa
			}
			if got := below(sa, sb) || below(sb, sa); got != tc.certain {
				t.Fatalf("%s: certain = %v, want %v", ctx, got, tc.certain)
			}
			if tc.certain {
				fired[tc.name]++
			}
			// Sorted views put a NaN first.
			hasNaN := math.IsNaN(sa.Values()[0]) || math.IsNaN(sb.Values()[0])

			seed := rng.Uint64()
			proto := &Bootstrap{Quantiles: qs, Rounds: rounds}
			forks := [4]*Bootstrap{}
			for i := range forks {
				forks[i] = proto.Fork(seed).(*Bootstrap)
			}
			ref := xrand.New(seed)
			bufA, bufB := make([]float64, len(tc.a)), make([]float64, len(tc.b))
			for call := 0; call < 2; call++ {
				want := comparetest.ReferenceWinRate(ref, tc.a, tc.b, bufA, bufB, qs, rounds)
				rates := [2]float64{}
				var err error
				if rates[0], err = forks[0].WinRate(tc.a, tc.b); err != nil {
					t.Fatal(err)
				}
				if rates[1], err = forks[1].WinRateSorted(sa, sb); err != nil {
					t.Fatal(err)
				}
				outs := [2]Outcome{}
				if outs[0], err = forks[2].Compare(tc.a, tc.b); err != nil {
					t.Fatal(err)
				}
				if outs[1], err = forks[3].CompareSorted(sa, sb); err != nil {
					t.Fatal(err)
				}
				if !hasNaN {
					for i, r := range rates {
						if r != want {
							t.Fatalf("%s call %d: rate %d = %v, reference %v", ctx, call, i, r, want)
						}
					}
					for i, o := range outs {
						if o != referenceOutcome(want) {
							t.Fatalf("%s call %d: outcome %d = %v, reference rate %v thresholds to %v", ctx, call, i, o, want, referenceOutcome(want))
						}
					}
				}
				next := *ref
				wantNext := next.Uint64()
				for i, f := range forks {
					peek := *f.rng
					if peek.Uint64() != wantNext {
						t.Fatalf("%s call %d: fork %d left the generator elsewhere than the reference", ctx, call, i)
					}
				}
			}
		}
	}
	for _, name := range []string{"separated", "gap of two ulps", "zeros", "-0", "subnormals"} {
		if fired[name] == 0 {
			t.Fatalf("the certain-outcome branch never fired on %q", name)
		}
	}
}
