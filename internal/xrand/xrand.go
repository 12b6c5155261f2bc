// Package xrand provides the deterministic pseudo-random substrate used by
// every stochastic component of the repository: noise models, bootstrap
// resampling, workload generation and the shuffles of the clustering
// procedure.
//
// The package deliberately avoids math/rand so that (a) every experiment is
// reproducible from a single uint64 seed, (b) independent sub-streams can be
// split off deterministically (Split), and (c) the generators are safe to
// embed in value types without hidden global state.
//
// The core generator is xoshiro256++ seeded through SplitMix64, the
// construction recommended by Blackman & Vigna. It passes BigCrush and is
// more than adequate for simulation workloads.
//
// Every product that feeds a sum is rounded explicitly, float64(x*y) + z,
// so that no architecture fuses it into one multiply-add and every variate
// has the same bits on arm64 as on amd64 (TestNoFusedMultiplyAdd at the
// repository root checks the arm64 build).
package xrand

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next value.
// It is used for seeding and for Split; it must never be exposed raw.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256++ generator. The zero value is not usable; construct
// with New. Rand is not safe for concurrent use; use Split to derive
// independent generators for concurrent goroutines.
type Rand struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the state derived from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256++ must not be seeded with the all-zero state; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits. The state words
// live in locals so the function stays within the compiler's inlining
// budget: every draw (Intn, Float64, and through them the simulator's
// noise) runs without a call.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	r.s = [4]uint64{s0, s1, s2, s3}
	return result
}

// step is Uint64's xoshiro256++ step on state words held in locals: it
// returns the output word and the next state. The bulk draw loops below
// call it, inlined, per draw, so the state stays in registers for a whole
// loop. (Uint64 spells the step out: calling step would put it past the
// inlining budget.)
func step(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64, uint64) {
	v := bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return v, s0, s1, s2, s3
}

// Split returns a new generator whose stream is statistically independent of
// r's future output. It draws a fresh seed through a SplitMix64 step keyed by
// r, so repeated Splits yield distinct generators.
//
// Split advances r, so the derived stream depends on how many values r has
// already produced. Concurrent engines that must stay deterministic across
// worker counts should key their streams by work-unit index with Mix or
// NewKeyed instead, which depend only on (seed, key).
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Mix deterministically derives a sub-stream seed from a base seed and a
// stream key by passing both words through the SplitMix64 finalizer. Equal
// (seed, key) pairs always yield the same value regardless of program order —
// the property the parallel study engine relies on for bit-identical results
// at any worker count. Adjacent keys (0, 1, 2, ...) decorrelate fully: the
// finalizer is a bijective avalanche function.
func Mix(seed, key uint64) uint64 {
	s := seed
	v := splitMix64(&s)
	s = v ^ (key * 0x9e3779b97f4a7c15)
	return splitMix64(&s)
}

// NewKeyed returns a generator for sub-stream key of the stream identified by
// seed: New(Mix(seed, key)). Use one key per independent work unit (placement
// index, clustering repetition, pair id) so concurrent units draw from
// non-overlapping deterministic streams.
func NewKeyed(seed, key uint64) *Rand {
	return New(Mix(seed, key))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// TallyIntns draws what len(rank) successive Intn(len(rank)) calls would
// and counts each draw d as counts[rank[d]]++, leaving the generator where
// those calls would. The state words stay in
// locals for the whole loop, no draw is stored, and Lemire's rejection
// bound (-n) mod n is computed once: Intn's extra `lo >= n` test only
// skips that modulo, since the bound is below n. counts must hold every
// value rank maps to; an empty rank is a no-op.
func (r *Rand) TallyIntns(counts, rank []int32) {
	n := len(rank)
	if n == 0 {
		return
	}
	bound := uint64(n)
	reject := -bound % bound
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < n; {
		var v uint64
		v, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		hi, lo := bits.Mul64(v, bound)
		if lo >= reject {
			counts[rank[hi]]++
			i++
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// SkipIntns advances the generator exactly as m successive Intn(n) calls
// would and discards the draws, with TallyIntns' register-resident loop.
// m <= 0 is a no-op for any n; otherwise it panics if n <= 0.
func (r *Rand) SkipIntns(m, n int) {
	if m <= 0 {
		return
	}
	if n <= 0 {
		panic("xrand: SkipIntns with non-positive n")
	}
	bound := uint64(n)
	reject := -bound % bound
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < m; {
		var v uint64
		v, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if _, lo := bits.Mul64(v, bound); lo >= reject {
			i++
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Norm returns a standard normal variate (polar Box–Muller; the spare value
// is intentionally discarded to keep Rand a single-word-of-state value type).
func (r *Rand) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *Rand) Normal(mean, sigma float64) float64 {
	return mean + float64(sigma*r.Norm())
}

// LogNormal returns exp(N(mu, sigma)); the distribution of multiplicative
// timing noise, and the paper's measured execution-time histograms are well
// described by it (right-skewed with a hard lower bound).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponential variate with rate lambda (mean 1/lambda).
func (r *Rand) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// Pareto returns a Pareto(xm, alpha) variate: heavy-tailed, used to model the
// rare large OS-noise spikes observed in repeated kernel timings.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("xrand: Pareto requires positive parameters")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// Gamma returns a Gamma(shape k, scale theta) variate using the
// Marsaglia–Tsang method (with Johnk boost for k < 1).
func (r *Rand) Gamma(k, theta float64) float64 {
	if k <= 0 || theta <= 0 {
		panic("xrand: Gamma requires positive parameters")
	}
	if k < 1 {
		// Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(k+1, theta) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		if math.Log(u) < float64(0.5*x*x)+d-float64(d*v)+float64(d*math.Log(v)) {
			return d * v * theta
		}
	}
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Resample draws len(dst) values from src with replacement into dst.
func (r *Rand) Resample(dst, src []float64) {
	n := len(src)
	for i := range dst {
		dst[i] = src[r.Intn(n)]
	}
}
