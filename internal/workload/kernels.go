package workload

import (
	"fmt"

	"relperf/internal/mat"
	"relperf/internal/measure"
	"relperf/internal/xrand"
)

// This file implements the paper's concluding scenario (§V): even without
// splitting computation across devices, "the linear algebra expression in
// line 4 of Procedure 6 can alone have many different equivalent
// algorithms, each having a different sequence of calls to optimized
// libraries; typically these algorithms also show significant difference in
// performance". The three equivalent Regularized Least Squares algorithms —
// normal equations + Cholesky, augmented QR, and explicit inversion — are
// executed for real on the host and their measured wall-time distributions
// are fed to the same clustering methodology.

// KernelVariant is one mathematically-equivalent implementation of the RLS
// solve.
type KernelVariant struct {
	// Name identifies the algorithm ("rls-cholesky").
	Name string
	// Solve computes Z = argmin ‖AZ−B‖² + λ‖Z‖².
	Solve func(A, B *mat.Mat, lambda float64) (*mat.Mat, error)
	// Flops estimates the work for square size×size inputs.
	Flops func(size int) int64
}

// RLSVariants returns the three equivalent algorithms, fastest-expected
// first.
func RLSVariants() []KernelVariant {
	return []KernelVariant{
		{
			Name:  "rls-cholesky",
			Solve: mat.SolveRLS,
			Flops: func(s int) int64 { return mat.FlopsRLS(s, s, s) },
		},
		{
			Name:  "rls-qr",
			Solve: mat.SolveRLSQR,
			Flops: func(s int) int64 { return mat.FlopsRLSQR(s, s, s) },
		},
		{
			Name:  "rls-inverse",
			Solve: mat.SolveRLSInverse,
			Flops: func(s int) int64 {
				// Gram + shift + explicit inverse (LU + n solves) + two GEMMs.
				return mat.FlopsGram(s, s) + int64(s) +
					mat.FlopsLU(s) + 2*mat.FlopsTriSolve(s, s) +
					2*mat.FlopsGEMM(s, s, s)
			},
		},
	}
}

// KernelStudyConfig configures a real-execution kernel-variant measurement.
type KernelStudyConfig struct {
	// Size is the square matrix dimension (default 64).
	Size int
	// Iters is the number of solves per measurement (default 3) — batching
	// reduces timer-resolution noise.
	Iters int
	// N is the number of measurements per variant (default 30).
	N int
	// Warmup measurements are discarded (default 2).
	Warmup int
	// Lambda is the regularization (default 0.5).
	Lambda float64
	// Seed drives the input generation.
	Seed uint64
}

func (c *KernelStudyConfig) defaults() {
	if c.Size <= 0 {
		c.Size = 64
	}
	if c.Iters <= 0 {
		c.Iters = 3
	}
	if c.N <= 0 {
		c.N = 30
	}
	if c.Warmup == 0 {
		c.Warmup = 2
	}
	if c.Lambda <= 0 {
		c.Lambda = 0.5
	}
}

// MeasureKernelVariants executes every RLS variant on the host, measuring
// real wall-clock time, and returns the measured distributions. All variants
// consume identical inputs per measurement (same seed-derived stream), so
// the comparison isolates the algorithm. After every variant's warm-up the
// measurements are taken round-robin — one per variant in turn — so a burst
// of CPU contention on the host lands on all variants alike instead of on
// whichever one happened to be timed in that block.
func MeasureKernelVariants(cfg KernelStudyConfig) (*measure.SampleSet, error) {
	cfg.defaults()
	variants := RLSVariants()
	ss := &measure.SampleSet{Workload: fmt.Sprintf("rls-variants-size%d", cfg.Size)}

	// Pre-generate the shared inputs once: the measured loop then spends
	// all its time inside the solver under test.
	inputs := make([]*mat.Mat, 2*cfg.Iters)
	rng := xrand.New(cfg.Seed)
	for i := range inputs {
		inputs[i] = mat.Rand(rng, cfg.Size, cfg.Size)
	}

	runners := make([]measure.Runner, len(variants))
	for i, v := range variants {
		v := v
		runners[i] = func() (float64, error) {
			var solveErr error
			sec := measure.Time(func() {
				for it := 0; it < cfg.Iters; it++ {
					A, B := inputs[2*it], inputs[2*it+1]
					if _, err := v.Solve(A, B, cfg.Lambda); err != nil {
						solveErr = err
						return
					}
				}
			})
			if solveErr != nil {
				return 0, fmt.Errorf("workload: %s: %w", v.Name, solveErr)
			}
			if sec <= 0 {
				// Sub-resolution measurement: clamp to one timer tick so
				// the sample stays valid.
				sec = 1e-9
			}
			return sec, nil
		}
	}
	for i, run := range runners {
		for w := 0; w < cfg.Warmup; w++ {
			if _, err := run(); err != nil {
				return nil, fmt.Errorf("measure: warmup %d of %s: %w", w, variants[i].Name, err)
			}
		}
		ss.Samples = append(ss.Samples, measure.Sample{Name: variants[i].Name, Seconds: make([]float64, cfg.N)})
	}
	for n := 0; n < cfg.N; n++ {
		for i, run := range runners {
			sec, err := run()
			if err != nil {
				return nil, fmt.Errorf("measure: measurement %d of %s: %w", n, variants[i].Name, err)
			}
			ss.Samples[i].Seconds[n] = sec
		}
	}
	return ss, nil
}

// VerifyVariantsAgree checks the mathematical equivalence of the variants on
// a fresh random instance, returning the maximum pairwise solution
// difference (max-abs). The clustering methodology requires the algorithms
// in A to be mathematically equivalent; this is the runtime witness.
func VerifyVariantsAgree(size int, lambda float64, seed uint64) (float64, error) {
	rng := xrand.New(seed)
	A := mat.Rand(rng, size, size)
	B := mat.Rand(rng, size, size)
	variants := RLSVariants()
	sols := make([]*mat.Mat, len(variants))
	for i, v := range variants {
		z, err := v.Solve(A, B, lambda)
		if err != nil {
			return 0, fmt.Errorf("workload: %s: %w", v.Name, err)
		}
		sols[i] = z
	}
	var maxDiff float64
	for i := 1; i < len(sols); i++ {
		d, err := sols[i].Sub(sols[0])
		if err != nil {
			return 0, err
		}
		if m := d.MaxAbs(); m > maxDiff {
			maxDiff = m
		}
	}
	return maxDiff, nil
}
