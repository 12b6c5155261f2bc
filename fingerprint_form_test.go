package relperf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"relperf/internal/compare"
	"relperf/internal/device"
)

// The fmt renderings the fingerprint's canonical form was first defined
// by. The strconv builders must produce the same bytes for every value, or
// every stored fingerprint would change.

func refNoise(n device.NoiseModel) string {
	switch m := n.(type) {
	case nil, device.NoNoise, *device.NoNoise:
		return "none"
	case device.LogNormalNoise:
		return fmt.Sprintf("lognormal(sigma=%v)", m.Sigma)
	case device.GaussianNoise:
		floor := m.Floor
		if floor == 0 {
			floor = device.DefaultGaussianFloor
		}
		return fmt.Sprintf("gaussian(rel=%v floor=%v)", m.Rel, floor)
	case device.SpikyNoise:
		return fmt.Sprintf("spiky(p=%v scale=%v alpha=%v base=%s)", m.P, m.Scale, m.Alpha, refNoise(m.Base))
	case device.ShiftNoise:
		return fmt.Sprintf("shift(shift=%v base=%s)", m.Shift, refNoise(m.Base))
	}
	panic(fmt.Sprintf("no reference for %T", n))
}

func refDevice(label string, d *device.Device) string {
	return fmt.Sprintf("%s %q kind=%d peak=%v membw=%v launch=%d task=%d threads=%d noise=%s energy=(idle=%v active=%v jpb=%v)\n",
		label, d.Name, d.Kind, d.PeakFlops, d.MemBandwidth,
		d.LaunchOverhead.Nanoseconds(), d.TaskOverhead.Nanoseconds(),
		d.Threads, refNoise(d.Noise), d.Energy.IdleWatts, d.Energy.ActiveWatts, d.Energy.JoulesPerByte)
}

func refComparator(cmp compare.Comparator) string {
	switch c := cmp.(type) {
	case *compare.Bootstrap:
		return fmt.Sprintf("cmp bootstrap rounds=%d margin=%v quantiles=%v\n", c.Rounds, c.Margin, c.Quantiles)
	case compare.KS:
		return fmt.Sprintf("cmp ks alpha=%v\n", c.Alpha)
	case compare.MannWhitney:
		return fmt.Sprintf("cmp mannwhitney alpha=%v\n", c.Alpha)
	case compare.MeanThreshold:
		return fmt.Sprintf("cmp mean reltol=%v\n", c.RelTol)
	case compare.SketchComparator:
		return fmt.Sprintf("cmp sketch margin=%v quantiles=%v\n", c.Margin, c.Quantiles)
	}
	panic(fmt.Sprintf("no reference for %T", cmp))
}

// TestFingerprintFormMatchesFmt renders random decision parameters —
// floats of every magnitude and the special values, names that need
// escaping — with the strconv builders and with fmt, and requires equal
// bytes. Parameters are positive where a zero would select a default.
func TestFingerprintFormMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1e21, 1e20, 1e-5, 1e-4, 123456789, 0.1, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64}
	pos := func() float64 {
		if rng.Intn(4) == 0 {
			return math.Abs(specials[rng.Intn(len(specials))]) + math.SmallestNonzeroFloat64
		}
		return math.Exp(rng.NormFloat64() * 20)
	}
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	names := []string{"", "xeon-8160", "p\"100\"", "tab\there", "ünï\x00code", "\xff"}
	var noise func(depth int) device.NoiseModel
	noise = func(depth int) device.NoiseModel {
		switch k := rng.Intn(6); {
		case k == 0 || depth > 2:
			return nil
		case k == 1:
			return device.LogNormalNoise{Sigma: value()}
		case k == 2:
			return device.GaussianNoise{Rel: value(), Floor: value()}
		case k == 3:
			return device.SpikyNoise{P: value(), Scale: value(), Alpha: value(), Base: noise(depth + 1)}
		case k == 4:
			return device.ShiftNoise{Shift: value(), Base: noise(depth + 1)}
		default:
			return device.NoNoise{}
		}
	}
	qs := func() []float64 {
		out := make([]float64, rng.Intn(5)+1)
		for i := range out {
			out[i] = value()
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		n := noise(0)
		if got, err := fingerprintNoise(nil, n); err != nil || string(got) != refNoise(n) {
			t.Fatalf("noise %#v: %q, %v; want %q", n, got, err, refNoise(n))
		}
		d := &device.Device{
			Name: names[rng.Intn(len(names))], Kind: device.Kind(rng.Intn(2)),
			PeakFlops: value(), MemBandwidth: value(),
			LaunchOverhead: time.Duration(rng.Int63()), TaskOverhead: time.Duration(-rng.Int63n(1000)),
			Threads: rng.Intn(64), Noise: n,
			Energy: device.EnergyModel{IdleWatts: value(), ActiveWatts: value(), JoulesPerByte: value()},
		}
		if got, err := fingerprintDevice(nil, "edge", d); err != nil || string(got) != refDevice("edge", d) {
			t.Fatalf("device %+v:\n %q, %v\nwant %q", d, got, err, refDevice("edge", d))
		}
		var cmp compare.Comparator
		switch rng.Intn(5) {
		case 0:
			cmp = &compare.Bootstrap{Rounds: rng.Intn(1000) + 1, Margin: pos(), Quantiles: qs()}
		case 1:
			cmp = compare.KS{Alpha: pos()}
		case 2:
			cmp = compare.MannWhitney{Alpha: pos()}
		case 3:
			cmp = compare.MeanThreshold{RelTol: pos()}
		default:
			cmp = compare.SketchComparator{Margin: pos(), Quantiles: qs()}
		}
		if got, err := fingerprintComparator(nil, cmp); err != nil || string(got) != refComparator(cmp) {
			t.Fatalf("comparator %+v: %q, %v; want %q", cmp, got, err, refComparator(cmp))
		}
	}
}
