package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseed did not reset stream at %d: %d != %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(3)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	f := func(_ uint32) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRangeAndCoverage(t *testing.T) {
	r := New(13)
	const n = 7
	seen := make([]int, n)
	for i := 0; i < 10000; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c == 0 {
			t.Fatalf("value %d never produced in 10000 draws", v)
		}
		// Expect ~1428 each; allow generous slack.
		if c < 1000 || c > 2000 {
			t.Fatalf("value %d frequency %d implausibly far from uniform", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniform(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) = %v out of range", v)
		}
	}
}

// moments checks that the empirical mean and variance of n draws from gen are
// within tol of the expectations.
func moments(t *testing.T, name string, gen func() float64, n int, wantMean, wantVar, tol float64) {
	t.Helper()
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := gen()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-wantMean) > tol {
		t.Errorf("%s: mean = %.4f, want %.4f ± %.3f", name, mean, wantMean, tol)
	}
	if math.Abs(variance-wantVar) > tol*math.Max(1, wantVar)*3 {
		t.Errorf("%s: var = %.4f, want %.4f", name, variance, wantVar)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(19)
	moments(t, "Norm", r.Norm, 200000, 0, 1, 0.02)
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	moments(t, "Normal(5,2)", func() float64 { return r.Normal(5, 2) }, 200000, 5, 4, 0.05)
}

func TestExpMoments(t *testing.T) {
	r := New(29)
	moments(t, "Exp(2)", func() float64 { return r.Exp(2) }, 200000, 0.5, 0.25, 0.02)
}

func TestLogNormalPositive(t *testing.T) {
	r := New(31)
	for i := 0; i < 5000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(37)
	// Median of LogNormal(mu, sigma) is exp(mu).
	const n = 100000
	below := 0
	for i := 0; i < n; i++ {
		if r.LogNormal(1, 0.7) < math.E {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("LogNormal median fraction %.3f, want ~0.5", frac)
	}
}

func TestParetoBound(t *testing.T) {
	r := New(41)
	for i := 0; i < 5000; i++ {
		if v := r.Pareto(2, 3); v < 2 {
			t.Fatalf("Pareto(2,3) below xm: %v", v)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(43)
	// Gamma(k, theta): mean k*theta, var k*theta^2.
	moments(t, "Gamma(3, 0.5)", func() float64 { return r.Gamma(3, 0.5) }, 200000, 1.5, 0.75, 0.03)
	moments(t, "Gamma(0.5, 2)", func() float64 { return r.Gamma(0.5, 2) }, 200000, 1.0, 2.0, 0.05)
}

func TestBernoulli(t *testing.T) {
	r := New(47)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bernoulli(0.3) frequency %.3f", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(53)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleUniformish(t *testing.T) {
	// Position counts of element 0 across many shuffles of [0,1,2,3] should
	// be roughly uniform.
	r := New(59)
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		s := []int{0, 1, 2, 3}
		r.ShuffleInts(s)
		for pos, v := range s {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		if c < trials/4-trials/20 || c > trials/4+trials/20 {
			t.Fatalf("element 0 at position %d: %d of %d (not uniform)", pos, c, trials)
		}
	}
}

func TestResample(t *testing.T) {
	r := New(61)
	src := []float64{1, 2, 3}
	dst := make([]float64, 1000)
	r.Resample(dst, src)
	for _, v := range dst {
		if v != 1 && v != 2 && v != 3 {
			t.Fatalf("resample produced foreign value %v", v)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}

func TestShuffleGeneric(t *testing.T) {
	r := New(71)
	s := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), s...)
	changed := false
	for trial := 0; trial < 20 && !changed; trial++ {
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		for i := range s {
			if s[i] != orig[i] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("Shuffle never permuted")
	}
	// Still a permutation.
	seen := map[string]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != len(orig) {
		t.Fatal("Shuffle lost elements")
	}
}

func TestMixDeterministicAndKeySensitive(t *testing.T) {
	if Mix(1, 2) != Mix(1, 2) {
		t.Fatal("Mix is not a pure function")
	}
	seen := map[uint64]bool{}
	for key := uint64(0); key < 1000; key++ {
		v := Mix(7, key)
		if seen[v] {
			t.Fatalf("Mix(7, %d) collides", key)
		}
		seen[v] = true
	}
	if Mix(1, 0) == Mix(2, 0) {
		t.Fatal("Mix ignores the seed")
	}
}

func TestNewKeyedIndependentStreams(t *testing.T) {
	// Same (seed, key) → identical stream; adjacent keys → different
	// streams; derivation never depends on other draws.
	a1 := NewKeyed(5, 10)
	a2 := NewKeyed(5, 10)
	b := NewKeyed(5, 11)
	var differs bool
	for i := 0; i < 100; i++ {
		va := a1.Uint64()
		if va != a2.Uint64() {
			t.Fatal("equal (seed, key) streams diverge")
		}
		if va != b.Uint64() {
			differs = true
		}
	}
	if !differs {
		t.Fatal("adjacent keys produced identical streams")
	}
	// Order independence: deriving key 10 after consuming from another
	// generator yields the same stream.
	parent := New(5)
	parent.Uint64()
	c := NewKeyed(5, 10)
	d := NewKeyed(5, 10)
	_ = parent
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("keyed stream depends on unrelated draws")
		}
	}
}
