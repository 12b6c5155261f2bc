package stats_test

// FuzzBootKernelQuantiles holds the batched bootstrap kernel to its
// determinism contract on arbitrary input: for any sample (ties, NaN, ±Inf,
// N = 0, 1, 2, ...), any generator seed and any ascending quantile list
// that includes 0 and 1, one index-space resample read by one
// BootKernel.Quantiles pass over the list's PlanQuantiles plan equals
// QuantileSorted over the value-space xrand.Resample of the same generator
// state, NaN for NaN, and both paths leave the generator in the same state.

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// fuzzKernelMaxN caps the decoded sample so each input stays cheap.
const fuzzKernelMaxN = 512

// floatBytes encodes xs as little-endian float64 bits, the fuzzer's
// sample encoding.
func floatBytes(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// fuzzQuantiles decodes each byte pair as q = v/65535 and returns the list
// sorted ascending with 0 and 1 added, repeats kept.
func fuzzQuantiles(b []byte) []float64 {
	qs := []float64{0, 1}
	for i := 0; i+1 < len(b); i += 2 {
		qs = append(qs, float64(binary.LittleEndian.Uint16(b[i:]))/65535)
	}
	sort.Float64s(qs)
	return qs
}

func FuzzBootKernelQuantiles(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	quarters := []byte{0xff, 0x3f, 0xff, 0x7f, 0xff, 0xbf}
	f.Add(floatBytes(), quarters, uint64(1))
	f.Add(floatBytes(7), quarters, uint64(2))
	f.Add(floatBytes(2, 1), quarters, uint64(3))
	f.Add(floatBytes(2, 2, 1, 1, 1, 3, 2, 1), quarters, uint64(4))
	f.Add(floatBytes(1, nan, 3, nan, 2), quarters, uint64(5))
	f.Add(floatBytes(-inf, 1, inf, 0, math.Copysign(0, -1)), quarters, uint64(6))
	f.Add(floatBytes(inf, inf, -inf), []byte{0x00, 0x80, 0x00, 0x80}, uint64(7))
	f.Add(floatBytes(0.9, 1.1, 1.0, 1.3, 0.95, 1.2, 1.05, 1.15), []byte{0x01, 0x00, 0xfe, 0xff}, uint64(8))

	f.Fuzz(func(t *testing.T, raw, qraw []byte, seed uint64) {
		n := len(raw) / 8
		if n > fuzzKernelMaxN {
			n = fuzzKernelMaxN
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		qs := fuzzQuantiles(qraw)

		k := stats.NewBootKernel(stats.NewSortedSample(xs))
		plan := stats.PlanQuantiles(qs, n, nil)
		rngIdx, rngVal := xrand.New(seed), xrand.New(seed)
		buf := make([]float64, n)
		got := make([]float64, len(qs))
		ranks := make([]int32, stats.RanksLen(n))
		for round := 0; round < 3; round++ {
			k.Resample(rngIdx)
			rngVal.Resample(buf, xs)
			// sort.Float64s orders NaNs first, as NewSortedSample does.
			sort.Float64s(buf)
			k.Quantiles(plan, ranks, got)
			for i, q := range qs {
				want := stats.QuantileSorted(buf, q)
				if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
					t.Fatalf("N=%d round=%d q=%v: kernel %v != value-space %v", n, round, q, got[i], want)
				}
			}
			if rngIdx.Uint64() != rngVal.Uint64() {
				t.Fatalf("N=%d round=%d: generators diverged", n, round)
			}
		}
	})
}
