package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"relperf/internal/xrand"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// mean 5, sum of squared dev 32, unbiased variance 32/7.
	if got := Variance(xs); !almostEq(got, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v", got)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single value should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("Min/Max of empty should be NaN")
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileEdge(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	if !math.IsNaN(Quantile([]float64{1}, -0.1)) || !math.IsNaN(Quantile([]float64{1}, 1.1)) {
		t.Fatal("out-of-range q should be NaN")
	}
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Fatalf("single-element quantile = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := xrand.New(5)
	f := func(seed uint32) bool {
		n := rng.Intn(40) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Normal(0, 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.05 {
			qq := math.Min(q, 1)
			v := Quantile(xs, qq)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("Summary = %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestKSIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(xs, xs); d != 0 {
		t.Fatalf("KS of identical samples = %v", d)
	}
}

func TestKSDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSStatistic(a, b); d != 1 {
		t.Fatalf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSSymmetric(t *testing.T) {
	rng := xrand.New(11)
	a := make([]float64, 40)
	b := make([]float64, 60)
	for i := range a {
		a[i] = rng.Normal(0, 1)
	}
	for i := range b {
		b[i] = rng.Normal(0.5, 1)
	}
	if d1, d2 := KSStatistic(a, b), KSStatistic(b, a); !almostEq(d1, d2, 1e-12) {
		t.Fatalf("KS not symmetric: %v vs %v", d1, d2)
	}
}

func TestKSPValue(t *testing.T) {
	// Large separation, decent n: p should be tiny.
	rng := xrand.New(13)
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.Normal(0, 1)
		b[i] = rng.Normal(5, 1)
	}
	d := KSStatistic(a, b)
	if p := KSPValue(d, 100, 100); p > 1e-6 {
		t.Fatalf("p-value for separated samples = %v", p)
	}
	// Same distribution: p should usually be large.
	for i := range b {
		b[i] = rng.Normal(0, 1)
	}
	d = KSStatistic(a, b)
	if p := KSPValue(d, 100, 100); p < 0.01 {
		t.Fatalf("p-value for same-dist samples suspiciously small: %v (d=%v)", p, d)
	}
	if p := KSPValue(0, 10, 10); p != 1 {
		t.Fatalf("KSPValue(0) = %v", p)
	}
}

func TestMannWhitneySeparated(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110}
	u, p := MannWhitneyU(a, b)
	if u != 0 {
		t.Fatalf("U = %v, want 0 (a entirely below b)", u)
	}
	if p > 0.001 {
		t.Fatalf("p = %v, want tiny", p)
	}
}

func TestMannWhitneyIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	u, p := MannWhitneyU(a, a)
	// All comparisons tie or balance: U should be na*nb/2 = 12.5.
	if !almostEq(u, 12.5, 1e-9) {
		t.Fatalf("U = %v, want 12.5", u)
	}
	if p < 0.9 {
		t.Fatalf("p = %v for identical samples", p)
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	a := []float64{5, 5, 5}
	b := []float64{5, 5, 5, 5}
	_, p := MannWhitneyU(a, b)
	if p != 1 {
		t.Fatalf("all-tied p = %v, want 1", p)
	}
}

func TestMannWhitneyComplement(t *testing.T) {
	// U1 + U2 = na*nb
	rng := xrand.New(17)
	a := make([]float64, 13)
	b := make([]float64, 19)
	for i := range a {
		a[i] = rng.Normal(0, 2)
	}
	for i := range b {
		b[i] = rng.Normal(0.3, 2)
	}
	u1, _ := MannWhitneyU(a, b)
	u2, _ := MannWhitneyU(b, a)
	if !almostEq(u1+u2, float64(len(a)*len(b)), 1e-9) {
		t.Fatalf("U1+U2 = %v, want %d", u1+u2, len(a)*len(b))
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0.5, 1.5, 1.6, 2.5, -10, 10}, 0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// bins: [0,1): {0.5, -10 clamped} ; [1,2): {1.5, 1.6} ; [2,3]: {2.5, 10 clamped}
	want := []int{2, 2, 2}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("bin %d = %d, want %d (all: %v)", i, h.Counts[i], want[i], h.Counts)
		}
	}
	if h.Total != 6 {
		t.Fatalf("Total = %d", h.Total)
	}
	if got := h.BinCenter(0); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("BinCenter(0) = %v", got)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 0); err == nil {
		t.Fatal("zero bins should error")
	}
	if _, err := NewHistogram(nil, 1, 1, 4); err == nil {
		t.Fatal("empty range should error")
	}
}

func TestHistogramMode(t *testing.T) {
	h, _ := NewHistogram([]float64{0.1, 0.2, 1.5, 2.9}, 0, 3, 3)
	if h.Mode() != 0 {
		t.Fatalf("Mode = %d", h.Mode())
	}
}

func TestBootstrapMeanCentering(t *testing.T) {
	rng := xrand.New(21)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Normal(10, 2)
	}
	draws := Bootstrap(rng, xs, Mean, 500)
	if len(draws) != 500 {
		t.Fatalf("draw count = %d", len(draws))
	}
	m := Mean(draws)
	if math.Abs(m-Mean(xs)) > 0.2 {
		t.Fatalf("bootstrap mean %v far from sample mean %v", m, Mean(xs))
	}
}

// median is the bootstrap Statistic of the sample median; the engine hands
// it sorted resamples.
func median(sorted []float64) float64 { return QuantileSorted(sorted, 0.5) }

func TestBootstrapQuantileStat(t *testing.T) {
	rng := xrand.New(23)
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	draws := Bootstrap(rng, xs, median, 300)
	for _, d := range draws {
		if d < 1 || d > 10 {
			t.Fatalf("bootstrap median %v outside sample range", d)
		}
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a := Bootstrap(xrand.New(7), xs, Mean, 50)
	b := Bootstrap(xrand.New(7), xs, Mean, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("bootstrap not deterministic under fixed seed")
		}
	}
}

func TestSortSmallProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) {
				xs[i] = 0
			}
		}
		cp := append([]float64(nil), xs...)
		SortSmall(cp)
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		for i := range cp {
			if cp[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBootstrapQuantile(b *testing.B) {
	rng := xrand.New(1)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bootstrap(rng, xs, median, 100)
	}
}

func BenchmarkKSStatistic(b *testing.B) {
	rng := xrand.New(1)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Normal(0, 1)
		ys[i] = rng.Normal(0.2, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSStatistic(xs, ys)
	}
}

func TestKendallTauPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	tau, err := KendallTau(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tau, 1, 1e-12) {
		t.Fatalf("tau = %v, want 1", tau)
	}
	rev := []float64{50, 40, 30, 20, 10}
	tau, _ = KendallTau(x, rev)
	if !almostEq(tau, -1, 1e-12) {
		t.Fatalf("reversed tau = %v, want -1", tau)
	}
}

func TestKendallTauTies(t *testing.T) {
	x := []float64{1, 1, 2, 3}
	y := []float64{5, 6, 7, 8}
	tau, err := KendallTau(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0.7 || tau > 1 {
		t.Fatalf("tau with ties = %v", tau)
	}
	// Constant x: undefined, reported as 0.
	tau, _ = KendallTau([]float64{2, 2, 2}, []float64{1, 2, 3})
	if tau != 0 {
		t.Fatalf("constant-x tau = %v", tau)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Fatal("length mismatch accepted")
	}
	if _, err := KendallTau([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single pair accepted")
	}
}

func TestBootstrapIntoMatchesBootstrap(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := Bootstrap(xrand.New(9), xs, Mean, 40)
	out := make([]float64, 40)
	scratch := make([]float64, len(xs))
	b := BootstrapInto(out, xrand.New(9), xs, Mean, scratch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if &b[0] != &out[0] {
		t.Fatal("BootstrapInto did not write into out")
	}
	allocs := testing.AllocsPerRun(20, func() {
		BootstrapInto(out, xrand.New(9), xs, Mean, scratch)
	})
	if allocs != 0 {
		t.Fatalf("BootstrapInto allocates %v per run, want 0", allocs)
	}
}
