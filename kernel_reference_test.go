// Engine-level pin of the index-space bootstrap kernel: a reference
// comparator running the old materialize-and-sort kernel drives the full
// clustering engine, and its results must be bit-identical to the shipped
// index-space bootstrap — for equal seeds, at any worker count, on both the
// repetition and matrix paths. internal/compare pins the kernel at the
// WinRate level; this test pins it through every layer above.
package relperf_test

import (
	"reflect"
	"testing"

	"relperf"
	"relperf/internal/compare"
	"relperf/internal/comparetest"
	"relperf/internal/measure"
	"relperf/internal/xrand"
)

// refBootstrap is the pre-index-space bootstrap comparator, kept as the
// executable specification: resamples materialized as values, insertion
// sorted, quantiles read with stats.QuantileSorted. It forks like the real
// one so the engine runs it on the parallel path.
type refBootstrap struct {
	rng  *xrand.Rand
	bufA []float64
	bufB []float64
}

func (c *refBootstrap) Fork(seed uint64) compare.Comparator {
	return &refBootstrap{rng: xrand.New(seed)}
}

func (c *refBootstrap) Compare(a, b []float64) (compare.Outcome, error) {
	if len(a) == 0 || len(b) == 0 {
		return compare.Equivalent, compare.ErrBadSample
	}
	if len(c.bufA) < len(a) {
		c.bufA = make([]float64, len(a))
	}
	if len(c.bufB) < len(b) {
		c.bufB = make([]float64, len(b))
	}
	rate := comparetest.ReferenceWinRate(c.rng, a, b, c.bufA[:len(a)], c.bufB[:len(b)],
		compare.DefaultQuantiles, compare.DefaultRounds)
	switch {
	case rate >= 0.5+compare.DefaultMargin:
		return compare.Better, nil
	case rate <= 0.5-compare.DefaultMargin:
		return compare.Worse, nil
	default:
		return compare.Equivalent, nil
	}
}

// kernelRefSampleSet builds a four-algorithm campaign with overlapping
// distributions, the regime where the bootstrap's stochastic verdicts
// matter.
func kernelRefSampleSet(n int) *measure.SampleSet {
	rng := xrand.New(17)
	meds := []float64{1.0, 1.02, 1.25, 2.0}
	ss := &measure.SampleSet{Workload: "kernel-ref"}
	for i, med := range meds {
		s := measure.Sample{Name: "alg" + string(rune('A'+i)), Seconds: make([]float64, n)}
		for k := range s.Seconds {
			s.Seconds[k] = med * rng.LogNormal(0, 0.15)
		}
		ss.Samples = append(ss.Samples, s)
	}
	return ss
}

func TestEngineIndexKernelMatchesReferenceAtAnyWorkerCount(t *testing.T) {
	for _, n := range []int{10, 50, 200} {
		ss := kernelRefSampleSet(n)
		type variant struct {
			name string
			cmp  compare.Comparator
		}
		for _, matrix := range []bool{false, true} {
			var clusters []interface{}
			for _, v := range []variant{
				{"reference", &refBootstrap{}},
				{"index-space", nil}, // nil → the shipped bootstrap comparator
			} {
				for _, workers := range []int{1, 8} {
					cr, fa, err := relperf.ClusterSamples(ss, v.cmp, relperf.ClusterSamplesOptions{
						Reps: 25, Seed: 9, Workers: workers, Matrix: matrix,
					})
					if err != nil {
						t.Fatalf("N=%d %s workers=%d matrix=%v: %v", n, v.name, workers, matrix, err)
					}
					clusters = append(clusters, []interface{}{cr, fa})
				}
			}
			first := clusters[0]
			for i, c := range clusters {
				if !reflect.DeepEqual(first, c) {
					t.Fatalf("N=%d matrix=%v: clustering %d diverged from the reference kernel", n, matrix, i)
				}
			}
		}
	}
}
