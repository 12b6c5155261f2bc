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

// TestIntnGolden pins Intn's draw stream: the first 64 draws from seed 1 at
// bounds from the trivial (1) to ones near 2^62, where Lemire's method
// rejects about a quarter of the raw words. Every bootstrap resample and
// every golden result rests on this stream, so a change to the generator,
// the 128-bit product, the rejection threshold or the draw order fails
// here first.
func TestIntnGolden(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		}},
		{2, []int{
			1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0,
			1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1,
			1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0,
			0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
		}},
		{10, []int{
			8, 7, 1, 7, 1, 5, 9, 5, 0, 1, 9, 3, 0, 3, 0, 1,
			5, 4, 9, 6, 2, 7, 1, 4, 2, 6, 1, 9, 6, 7, 5, 6,
			5, 6, 9, 3, 1, 7, 9, 6, 4, 4, 3, 8, 5, 5, 6, 1,
			0, 0, 7, 5, 3, 1, 4, 4, 2, 2, 3, 0, 1, 4, 8, 3,
		}},
		{1000, []int{
			811, 747, 100, 746, 184, 590, 986, 523, 96, 134, 920, 343, 72, 394, 89, 156,
			557, 472, 957, 642, 263, 793, 158, 413, 237, 602, 184, 982, 611, 730, 593, 649,
			507, 620, 954, 323, 108, 734, 902, 691, 470, 498, 387, 807, 569, 595, 625, 199,
			84, 59, 745, 568, 311, 155, 434, 489, 220, 260, 395, 82, 174, 461, 844, 361,
		}},
		{1<<62 + 1, []int{
			3742900445501255847, 3445412373808019491, 2723103216895527121,
			4551153390418986306, 2413834233473203336, 619320757017230085,
			334032411423510581, 1819681383360238610, 412731718644179502,
			721023073268673070, 4417504108987972456, 3661405315145154947,
			731985342058994618, 1906776425930293225, 1096165841901463706,
			2779758682737176220, 849475202644295002, 4528992516851534373,
			2818651540366721598, 2737275856115965484, 2995370915952047224,
			2860734811194109311, 4400745065542856014, 1489868545080688796,
			499192311486763583, 4162324048332521789, 3190081560466779034,
			2168988682979553971, 1785614819929594299, 3724016830183469060,
			2745182808865560720, 2886408336126210850, 387929340435340877,
			3435885777373448468, 2623926727475972047, 1435456144320332863,
			715967771256824836, 2257581025203028378, 1015113473234965018,
			380853290984730096, 804680821862796218, 3892351021824935069,
			1668827285093744326, 4013740665963821088, 4029619339016362623,
			3112536242336087633, 754242803138711028, 2526737565343456569,
			1044909110356293831, 1925352090819649461, 3533229965368243034,
			1172733513416140371, 2634855892616676423, 967783572972488057,
			528544413435385982, 4488166844470068695, 633235355302615056,
			1397685753905166214, 2661751002360976285, 532546451472296937,
			1129913576422688823, 4122782757489504601, 2483648348234574556,
			1204664575742614697,
		}},
		{3 << 61, []int{
			5168118560712029236, 5161976863407276176, 1277519383417661917,
			4084654825343290681, 6826730085628479458, 3620751350209805004,
			928981135525845128, 6366759041830352475, 501048617135265872,
			2729522075040357915, 619097577966269253, 3853984691650661148,
			6626256163481958683, 4442822483484083643, 5492107972717732419,
			2860164638895439837, 1274212803966442503, 6793488775277301558,
			5050466919890400596, 4105913784173948225, 4493056373928070835,
			3509328885630978668, 4291102216791163966, 6601117598314284020,
			2234802817621033194, 748788467230145374, 5079237022035748695,
			6243486072498782683, 4785122340700168550, 3253483024469330956,
			3451485437696058320, 2678422229894391448, 5586025245275203589,
			3942619438330748784, 4117774213298341080, 4329612504189316274,
			1380499652093294008, 581894010653011316, 408684744834179332,
			5153828666060172702, 3935890091213958070, 2153184216480499295,
			3007618750365087338, 3386371537804542567, 1522670209852447527,
			2733352115661206675, 571279936477095144, 1207021232794194327,
			3194734363926101237, 4978882365640370651, 6020610998945731631,
			6044429008524543933, 4668804363504131449, 3790106348015184853,
			1567363665534440746, 2888028136229474191, 5299844948052364550,
			1759100270124210556, 2440497156705695420, 3952283838925014634,
			1451675359458732086, 792816620153078973, 6732250266705103042,
			949853032953922584,
		}},
	}
	for _, c := range cases {
		r := New(1)
		for i, want := range c.want {
			if got := r.Intn(c.n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", c.n, i, got, want)
			}
		}
		// The last two bounds must actually exercise the rejection branch:
		// 64 accepted draws then consumed more than 64 raw words.
		words := 0
		for probe := New(1); probe.s != r.s; probe.Uint64() {
			words++
			if words > 1000 {
				t.Fatalf("Intn(%d): generator state not reached from seed 1", c.n)
			}
		}
		if rejects := c.n > 1<<62; rejects != (words > len(c.want)) {
			t.Errorf("Intn(%d) consumed %d words for %d draws", c.n, words, len(c.want))
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

// TestIntnsMatchesIntn: a batch is exactly the draws of successive Intn
// calls and leaves the generator where they would. At 3<<61 Lemire's method
// rejects about a quarter of the raw words, so the rejection branch runs
// inside the batch many times.
func TestIntnsMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 16, 1 << 20, 3 << 61} {
		for _, size := range []int{1, 7, 64, 1000} {
			batch, single := New(uint64(n)+uint64(size)), New(uint64(n)+uint64(size))
			got := make([]int, size)
			batch.Intns(got, n)
			for i, v := range got {
				if want := single.Intn(n); v != want {
					t.Fatalf("n=%d size=%d: draw %d = %d, Intn gives %d", n, size, i, v, want)
				}
			}
			if batch.Uint64() != single.Uint64() {
				t.Fatalf("n=%d size=%d: generators diverged after the batch", n, size)
			}
		}
	}
}

// TestIntnsEmpty: an empty batch draws nothing, whatever n is, so a
// zero-size resample stays a no-op as the per-draw loop was.
func TestIntnsEmpty(t *testing.T) {
	a, b := New(3), New(3)
	a.Intns(nil, 0)
	a.Intns([]int{}, 5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("an empty batch advanced the generator")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intns with n = 0 did not panic")
		}
	}()
	a.Intns(make([]int, 1), 0)
}

// FuzzIntns holds a batch to successive Intn calls for any seed, any
// positive bound and batch sizes up to 2047.
func FuzzIntns(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint16(1))
	f.Add(uint64(2), uint64(10), uint16(30))
	f.Add(uint64(3), uint64(3<<61), uint16(100))
	f.Add(uint64(4), uint64(1<<62+1), uint16(17))
	f.Fuzz(func(t *testing.T, seed, n uint64, size uint16) {
		bound := int(n &^ (1 << 63)) // any positive int
		if bound == 0 {
			bound = 1
		}
		batch, single := New(seed), New(seed)
		got := make([]int, size%2048)
		batch.Intns(got, bound)
		for i, v := range got {
			if want := single.Intn(bound); v != want {
				t.Fatalf("n=%d: draw %d = %d, Intn gives %d", bound, i, v, want)
			}
		}
		if batch.Uint64() != single.Uint64() {
			t.Fatalf("n=%d size=%d: generators diverged after the batch", bound, len(got))
		}
	})
}
