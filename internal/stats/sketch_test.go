package stats_test

// Property suite of the streaming quantile sketch. The quantile-semantics
// tests follow the monotone-sweep pattern of the percentile tests in the
// related xoba/goutil stats package (SNIPPETS snippet 2): sweep q across
// [0, 1] in small steps and assert the estimate never decreases, with the
// endpoints pinned to the exact extremes. The merge tests pin the
// determinism contract — equal seeds, any merge order or tree shape, byte
// identical encodings — and the rank-error tests hold Quantile against
// SortedSample ground truth at N up to 10^6 within SketchEpsilon(k).

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"testing"

	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// sketchDist names a value generator the suite runs each property over.
type sketchDist struct {
	name string
	gen  func(r *xrand.Rand) float64
}

func sketchDists() []sketchDist {
	return []sketchDist{
		{"lognormal", func(r *xrand.Rand) float64 { return r.LogNormal(-3, 0.5) }},
		{"uniform", func(r *xrand.Rand) float64 { return r.Uniform(1, 2) }},
		{"bimodal", func(r *xrand.Rand) float64 {
			if r.Bernoulli(0.3) {
				return r.Normal(10, 0.1)
			}
			return r.Normal(1, 0.1)
		}},
	}
}

// fillSketch builds a sketch of capacity k over n draws from gen, returning
// the sketch and the raw values.
func fillSketch(t *testing.T, k, n int, seed uint64, gen func(*xrand.Rand) float64) (*stats.Sketch, []float64) {
	t.Helper()
	sk, err := stats.NewSketch(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(seed)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = gen(r)
		sk.Add(vals[i])
	}
	return sk, vals
}

func TestSketchQuantileMonotone(t *testing.T) {
	for _, d := range sketchDists() {
		for _, n := range []int{1, 7, 100, 1000, 20000} {
			sk, _ := fillSketch(t, 256, n, 0xabc, d.gen)
			last := math.Inf(-1)
			for i := 0; i <= 1000; i++ {
				q := float64(i) / 1000
				v := sk.Quantile(q)
				if math.IsNaN(v) {
					t.Fatalf("%s n=%d: Quantile(%v) is NaN", d.name, n, q)
				}
				if v < last {
					t.Fatalf("%s n=%d: Quantile(%v)=%v below Quantile at previous step %v", d.name, n, q, v, last)
				}
				last = v
			}
		}
	}
}

func TestSketchQuantileEndpoints(t *testing.T) {
	for _, d := range sketchDists() {
		for _, n := range []int{1, 50, 5000, 100000} {
			sk, vals := fillSketch(t, 128, n, 42, d.gen)
			if got, want := sk.Quantile(0), stats.Min(vals); got != want {
				t.Errorf("%s n=%d: Quantile(0)=%v, exact min %v", d.name, n, got, want)
			}
			if got, want := sk.Quantile(1), stats.Max(vals); got != want {
				t.Errorf("%s n=%d: Quantile(1)=%v, exact max %v", d.name, n, got, want)
			}
			if got, want := sk.MinValue(), stats.Min(vals); got != want {
				t.Errorf("%s n=%d: MinValue=%v, exact min %v", d.name, n, got, want)
			}
			if got, want := sk.MaxValue(), stats.Max(vals); got != want {
				t.Errorf("%s n=%d: MaxValue=%v, exact max %v", d.name, n, got, want)
			}
		}
	}
}

// TestSketchExactWhileSmall: while nothing has been compacted away the
// sketch IS the exact sample, and every quantile matches the type-7
// semantics of QuantileSorted bit for bit.
func TestSketchExactWhileSmall(t *testing.T) {
	for _, d := range sketchDists() {
		const n = 200
		sk, vals := fillSketch(t, 256, n, 7, d.gen)
		if sk.Theta() != 0 {
			t.Fatalf("%s: theta=%d for n=%d <= k", d.name, sk.Theta(), n)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for i := 0; i <= 100; i++ {
			q := float64(i) / 100
			if got, want := sk.Quantile(q), stats.QuantileSorted(sorted, q); got != want {
				t.Fatalf("%s: Quantile(%v)=%v, exact %v", d.name, q, got, want)
			}
		}
		if got, want := sk.Mean(), stats.Mean(vals); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: Mean=%v, exact %v", d.name, got, want)
		}
	}
}

// TestSketchMergeOrderInsensitive: equal seeds, shuffled merge order and
// arbitrary merge tree shape all yield byte-identical encodings.
func TestSketchMergeOrderInsensitive(t *testing.T) {
	const k, parts, perPart = 128, 8, 3000
	gen := sketchDists()[0].gen
	sketches := make([]*stats.Sketch, parts)
	for i := range sketches {
		sk, _ := fillSketch(t, k, perPart, xrand.Mix(0xfeed, uint64(i)), gen)
		sketches[i] = sk
	}
	mergeInOrder := func(order []int) []byte {
		acc, err := stats.NewSketch(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := acc.Merge(sketches[i]); err != nil {
				t.Fatal(err)
			}
		}
		b, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := mergeInOrder([]int{0, 1, 2, 3, 4, 5, 6, 7})
	shuffler := xrand.New(99)
	for trial := 0; trial < 20; trial++ {
		order := shuffler.Perm(parts)
		if got := mergeInOrder(order); !bytes.Equal(got, base) {
			t.Fatalf("merge order %v produced different bytes", order)
		}
	}
	// Balanced-tree merge: ((0+1)+(2+3)) + ((4+5)+(6+7)), built over clones
	// so the linear accumulators above stay untouched.
	clone := func(i int) *stats.Sketch {
		b, err := sketches[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sk, err := stats.DecodeSketch(b)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	level := make([]*stats.Sketch, parts)
	for i := range level {
		level[i] = clone(i)
	}
	for len(level) > 1 {
		var next []*stats.Sketch
		for i := 0; i < len(level); i += 2 {
			if err := level[i].Merge(level[i+1]); err != nil {
				t.Fatal(err)
			}
			next = append(next, level[i])
		}
		level = next
	}
	tree, err := level[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tree, base) {
		t.Fatal("tree-shaped merge produced different bytes than linear merge")
	}
	// Merge must not mutate its argument.
	if got := mergeInOrder([]int{7, 6, 5, 4, 3, 2, 1, 0}); !bytes.Equal(got, base) {
		t.Fatal("re-merge after tree pass produced different bytes (argument sketch was mutated)")
	}
}

// TestSketchDeterministicRebuild: rebuilding a sketch from scratch with the
// same seed and value sequence reproduces the encoding bit for bit.
func TestSketchDeterministicRebuild(t *testing.T) {
	gen := sketchDists()[2].gen
	a, _ := fillSketch(t, 64, 50000, 5, gen)
	b, _ := fillSketch(t, 64, 50000, 5, gen)
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("equal seeds and inputs produced different encodings")
	}
}

// trueRankError returns how far x's rank in the sorted ground truth lies
// from q: the distance from q to the rank interval x occupies under the
// type-7 mapping h = q*(n-1).
func trueRankError(sorted []float64, x, q float64) float64 {
	n := len(sorted)
	j := sort.SearchFloat64s(sorted, x) // first index >= x
	qlo, qhi := 0.0, 1.0
	if j > 0 {
		qlo = float64(j-1) / float64(n-1)
	}
	if j < n {
		qhi = float64(j) / float64(n-1)
	}
	switch {
	case q < qlo:
		return qlo - q
	case q > qhi:
		return q - qhi
	default:
		return 0
	}
}

// TestSketchRankError holds every quantile estimate against SortedSample
// ground truth within the documented SketchEpsilon(k), at N spanning 10^3 to
// 10^6 — the acceptance bound of the sketch path's error contract.
func TestSketchRankError(t *testing.T) {
	ns := []int{1000, 100000, 1000000}
	if testing.Short() {
		ns = []int{1000, 100000}
	}
	for _, d := range sketchDists() {
		for _, n := range ns {
			for _, k := range []int{256, 1024} {
				eps := stats.SketchEpsilon(k)
				sk, vals := fillSketch(t, k, n, xrand.Mix(11, uint64(n)), d.gen)
				base := stats.NewSortedSample(vals)
				worst := 0.0
				for i := 0; i <= 200; i++ {
					q := float64(i) / 200
					est := sk.Quantile(q)
					if err := trueRankError(base.Values(), est, q); err > worst {
						worst = err
					}
				}
				if worst > eps {
					t.Errorf("%s n=%d k=%d: worst rank error %.4f exceeds epsilon %.4f",
						d.name, n, k, worst, eps)
				} else {
					t.Logf("%s n=%d k=%d: worst rank error %.4f (epsilon %.4f, theta=%d, retained=%d)",
						d.name, n, k, worst, eps, sk.Theta(), sk.Retained())
				}
			}
		}
	}
}

func TestSketchEncodeDecodeRoundTrip(t *testing.T) {
	for _, d := range sketchDists() {
		for _, n := range []int{0, 1, 10, 1000, 50000} {
			sk, _ := fillSketch(t, 64, n, 13, d.gen)
			b, err := sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := stats.DecodeSketch(b)
			if err != nil {
				t.Fatalf("%s n=%d: decode: %v", d.name, n, err)
			}
			again, err := dec.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, again) {
				t.Fatalf("%s n=%d: decode→encode is not a fixed point", d.name, n)
			}
			if dec.N() != sk.N() || dec.K() != sk.K() || dec.Theta() != sk.Theta() {
				t.Fatalf("%s n=%d: decoded shape differs", d.name, n)
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
				got, want := dec.Quantile(q), sk.Quantile(q)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s n=%d: decoded Quantile(%v)=%v, want %v", d.name, n, q, got, want)
				}
			}
		}
	}
}

func TestSketchDecodeRejects(t *testing.T) {
	sk, _ := fillSketch(t, 32, 5000, 3, sketchDists()[0].gen)
	good, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mut(b)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated header", good[:20]},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"zero k", corrupt(func(b []byte) []byte { b[4], b[5], b[6], b[7] = 0, 0, 0, 0; return b })},
		{"theta out of range", corrupt(func(b []byte) []byte { b[8] = 64; return b })},
		{"count over capacity", corrupt(func(b []byte) []byte { b[12] = 255; return b })},
		{"trailing bytes", corrupt(func(b []byte) []byte { return append(b, 0) })},
		{"truncated items", good[:len(good)-1]},
		{"item out of order", corrupt(func(b []byte) []byte {
			// Swap the first two encoded items.
			const off = 37
			tmp := make([]byte, 16)
			copy(tmp, b[off:off+16])
			copy(b[off:off+16], b[off+16:off+32])
			copy(b[off+16:off+32], tmp)
			return b
		})},
		{"non-surviving item", corrupt(func(b []byte) []byte {
			// Force the first item's hash to all-ones: it cannot survive a
			// positive theta.
			const off = 37 + 8
			for i := 0; i < 8; i++ {
				b[off+i] = 0xff
			}
			return b
		})},
		{"NaN extreme", corrupt(func(b []byte) []byte {
			binary := math.Float64bits(math.NaN())
			for i := 0; i < 8; i++ {
				b[21+i] = byte(binary >> (56 - 8*i))
			}
			return b
		})},
	}
	if sk.Theta() == 0 {
		t.Fatal("test sketch did not compact; grow n")
	}
	for _, tc := range cases {
		if _, err := stats.DecodeSketch(tc.b); err == nil {
			t.Errorf("%s: decode accepted a corrupt encoding", tc.name)
		}
	}
}

func TestSketchMergeKMismatch(t *testing.T) {
	a, _ := stats.NewSketch(32, 1)
	b, _ := stats.NewSketch(64, 2)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("Merge accepted mismatched k")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("Merge accepted nil sketch")
	}
}

func TestSketchAddRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sk, _ := stats.NewSketch(8, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", v)
				}
			}()
			sk.Add(v)
		}()
	}
}

func TestSketchEmptyAndBounds(t *testing.T) {
	sk, err := stats.NewSketch(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sk.Quantile(0.5)) || !math.IsNaN(sk.Mean()) {
		t.Error("empty sketch must answer NaN")
	}
	sk.Add(2)
	if !math.IsNaN(sk.Quantile(-0.1)) || !math.IsNaN(sk.Quantile(1.1)) {
		t.Error("out-of-range q must answer NaN")
	}
	if _, err := stats.NewSketch(0, 0); err == nil {
		t.Error("NewSketch accepted k=0")
	}
	if _, err := stats.NewSketch(stats.MaxSketchK+1, 0); err == nil {
		t.Error("NewSketch accepted k over MaxSketchK")
	}
	if math.IsNaN(stats.SketchEpsilon(256)) || stats.SketchEpsilon(256) != 2.0/16.0 {
		t.Errorf("SketchEpsilon(256) = %v", stats.SketchEpsilon(256))
	}
}

// TestSketchConcurrentReadersAcrossMutations: Add clears the cached
// estimation array without a lock, so a sketch read by several goroutines,
// then grown by its owner once they are done, then read again, must give
// every reader the quantiles of its current contents (equal to a twin
// sketch read serially) without a data race under -race.
func TestSketchConcurrentReadersAcrossMutations(t *testing.T) {
	shared, err := stats.NewSketch(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := stats.NewSketch(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	qs := []float64{0, 0.1, 0.5, 0.9, 1}
	for phase := 0; phase < 4; phase++ {
		for i := 0; i < 500; i++ {
			v := rng.LogNormal(0, 1)
			shared.Add(v)
			twin.Add(v)
		}
		want := make([]float64, len(qs))
		for i, q := range qs {
			want[i] = twin.Quantile(q)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range qs {
					if got := shared.Quantile(q); got != want[i] {
						t.Errorf("phase %d: Quantile(%v) = %v, serial twin gives %v", phase, q, got, want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}
