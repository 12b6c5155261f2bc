package compare

import (
	"sort"
	"testing"
	"testing/quick"

	"relperf/internal/comparetest"
	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// TestDeterministicComparatorAntisymmetryProperty: for the deterministic
// comparators, Compare(a, b) must always be the flip of Compare(b, a),
// whatever the samples.
func TestDeterministicComparatorAntisymmetryProperty(t *testing.T) {
	rng := xrand.New(201)
	comparators := []Comparator{KS{}, MannWhitney{}, MeanThreshold{}}
	f := func(seed uint32) bool {
		na := rng.Intn(40) + 5
		nb := rng.Intn(40) + 5
		shift := rng.Uniform(-0.5, 0.5)
		sigma := rng.Uniform(0.01, 0.3)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = 1 * rng.LogNormal(0, sigma)
		}
		for i := range b {
			b[i] = (1 + shift) * rng.LogNormal(0, sigma)
		}
		for _, c := range comparators {
			ab, err := c.Compare(a, b)
			if err != nil {
				return false
			}
			ba, err := c.Compare(b, a)
			if err != nil {
				return false
			}
			if ab != ba.Flip() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapWinRateComplementProperty: WinRate(a, b) + WinRate(b, a) is
// approximately 1 in expectation; each is bounded in [0, 1].
func TestBootstrapWinRateComplementProperty(t *testing.T) {
	rng := xrand.New(203)
	f := func(seed uint32) bool {
		n := rng.Intn(50) + 5
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.LogNormal(0, 0.2)
			b[i] = 1.1 * rng.LogNormal(0, 0.2)
		}
		c := NewBootstrap(uint64(seed))
		rab, err := c.WinRate(a, b)
		if err != nil {
			return false
		}
		rba, err := c.WinRate(b, a)
		if err != nil {
			return false
		}
		if rab < 0 || rab > 1 || rba < 0 || rba > 1 {
			return false
		}
		// Independent bootstrap draws: complement only in expectation;
		// allow generous slack.
		sum := rab + rba
		return sum > 0.7 && sum < 1.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapQuantileOrderProperty: the win rate depends on the quantile
// list only as a multiset. A shuffled list, repeats included, gives the
// same WinRate as the list sorted ascending, bit for bit, through both the
// raw and the pre-sorted entry points, and the same as the reference
// kernel reading the quantiles in the configured order.
func TestBootstrapQuantileOrderProperty(t *testing.T) {
	rng := xrand.New(205)
	grid := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	f := func(seed uint32) bool {
		n := rng.Intn(60) + 1
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.LogNormal(0, 0.2)
			b[i] = 1.05 * rng.LogNormal(0, 0.2)
		}
		qs := make([]float64, rng.Intn(6)+1)
		for i := range qs {
			qs[i] = grid[rng.Intn(len(grid))]
		}
		ascending := append([]float64(nil), qs...)
		sort.Float64s(ascending)
		sa, sb := stats.NewSortedSample(a), stats.NewSortedSample(b)
		rate := func(qs []float64, sorted bool) float64 {
			c := NewBootstrap(uint64(seed))
			c.Quantiles = qs
			c.Rounds = 20
			var r float64
			var err error
			if sorted {
				r, err = c.WinRateSorted(sa, sb)
			} else {
				r, err = c.WinRate(a, b)
			}
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		ref := comparetest.ReferenceWinRate(xrand.New(uint64(seed)), a, b,
			make([]float64, n), make([]float64, n), qs, 20)
		for _, sorted := range []bool{false, true} {
			if rate(qs, sorted) != ref || rate(ascending, sorted) != ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestComparatorsMonotoneInSeparationProperty: increasing the true gap can
// only move the verdict toward Better (never from Better back to
// Equivalent/Worse) for the deterministic comparators on fixed noise.
func TestComparatorsMonotoneInSeparationProperty(t *testing.T) {
	rng := xrand.New(207)
	base := make([]float64, 40)
	for i := range base {
		base[i] = rng.LogNormal(0, 0.05)
	}
	shifted := func(m float64) []float64 {
		out := make([]float64, len(base))
		for i := range base {
			out[i] = base[i] * m
		}
		return out
	}
	for _, c := range []Comparator{KS{}, MannWhitney{}, MeanThreshold{}} {
		reachedBetter := false
		for _, mult := range []float64{1.0, 1.05, 1.2, 1.5, 2.0, 4.0} {
			o, err := c.Compare(base, shifted(mult))
			if err != nil {
				t.Fatal(err)
			}
			if o == Better {
				reachedBetter = true
			}
			if reachedBetter && o != Better {
				t.Fatalf("%T: verdict regressed from Better at multiplier %v", c, mult)
			}
			if o == Worse {
				t.Fatalf("%T: inverted verdict at multiplier %v", c, mult)
			}
		}
		if !reachedBetter {
			t.Fatalf("%T: never detected a 4x separation", c)
		}
	}
}
