package relperf

import (
	"bytes"
	"context"
	"testing"

	"relperf/internal/compare"
	"relperf/internal/device"
	"relperf/internal/xrand"
)

func TestFingerprintIdentityAndNormalization(t *testing.T) {
	base := StudyConfig{Program: smallProgram(), N: 30, Reps: 100}
	fp, err := Fingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 32 {
		t.Fatalf("fingerprint %q has length %d, want 32 hex digits", fp, len(fp))
	}

	// Semantically identical configs fingerprint identically: defaults
	// applied or spelled out, Seed and Workers ignored, nil comparator vs.
	// explicit default bootstrap.
	for _, same := range []StudyConfig{
		{Program: smallProgram()}, // N/Reps default to 30/100
		{Program: smallProgram(), N: 30, Reps: 100, Seed: 999, Workers: 7},
		{Program: smallProgram(), N: 30, Reps: 100, Comparator: compare.NewBootstrap(12345)},
		{Program: smallProgram(), N: 30, Reps: 100, MatrixTrials: 64}, // no-op without Matrix
	} {
		got, err := Fingerprint(same)
		if err != nil {
			t.Fatal(err)
		}
		if got != fp {
			t.Fatalf("config %+v fingerprints to %s, want %s", same, got, fp)
		}
	}

	// Result-relevant differences split the identity.
	for _, diff := range []StudyConfig{
		{Program: smallProgram(), N: 31, Reps: 100},
		{Program: smallProgram(), N: 30, Reps: 101},
		{Program: smallProgram(), N: 30, Reps: 100, Warmup: 1},
		{Program: smallProgram(), N: 30, Reps: 100, Matrix: true},
		{Program: TableIProgram(2), N: 30, Reps: 100},
		{Program: smallProgram(), N: 30, Reps: 100, Comparator: compare.KS{}},
		{Program: smallProgram(), N: 30, Reps: 100, Comparator: compare.NewBootstrap(0).Fork(1).(*compare.Bootstrap)},
	} {
		got, err := Fingerprint(diff)
		if err != nil {
			t.Fatal(err)
		}
		if diff.Comparator != nil {
			if b, ok := diff.Comparator.(*compare.Bootstrap); ok {
				// A forked default bootstrap has identical parameters; it
				// must collide with the default, not differ.
				_ = b
				if got != fp {
					t.Fatalf("forked default bootstrap fingerprints to %s, want %s", got, fp)
				}
				continue
			}
		}
		if got == fp {
			t.Fatalf("config %+v collides with the base fingerprint", diff)
		}
	}

	// Custom comparators have no canonical identity.
	if _, err := Fingerprint(StudyConfig{Program: smallProgram(), Comparator: customComparator{}}); err == nil {
		t.Fatal("custom comparator fingerprinted")
	}
}

// customComparator is a comparator the fingerprint layer cannot
// canonically observe.
type customComparator struct{}

func (customComparator) Compare(a, b []float64) (compare.Outcome, error) {
	return compare.Equivalent, nil
}
func (c customComparator) Fork(uint64) compare.Comparator { return c }

// fixedNoise is a custom model the fingerprint layer cannot canonically
// observe.
type fixedNoise struct{}

func (fixedNoise) Perturb(_ *xrand.Rand, nominal float64) float64 { return nominal }

// TestFingerprintNoiseCanonical: pointer and value forms of a noise model
// are one identity (fmt %#v would have hashed the pointer's address and
// destabilized fingerprints across process runs), and unknown noise models
// are rejected like unknown comparators.
func TestFingerprintNoiseCanonical(t *testing.T) {
	withNoise := func(n device.NoiseModel) StudyConfig {
		plat := DefaultPlatform()
		edge := *plat.Edge
		edge.Noise = n
		plat.Edge = &edge
		return StudyConfig{Program: smallProgram(), Platform: plat, N: 10, Reps: 20}
	}
	value, err := Fingerprint(withNoise(device.SpikyNoise{
		Base: device.LogNormalNoise{Sigma: 0.1}, P: 0.02, Scale: 0.2, Alpha: 1.5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := Fingerprint(withNoise(&device.SpikyNoise{
		Base: &device.LogNormalNoise{Sigma: 0.1}, P: 0.02, Scale: 0.2, Alpha: 1.5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if value != ptr {
		t.Fatalf("pointer-shaped noise fingerprints to %s, value form to %s", ptr, value)
	}
	other, err := Fingerprint(withNoise(device.SpikyNoise{
		Base: device.LogNormalNoise{Sigma: 0.2}, P: 0.02, Scale: 0.2, Alpha: 1.5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if other == value {
		t.Fatal("different noise parameters collide")
	}
	if _, err := Fingerprint(withNoise(fixedNoise{})); err == nil {
		t.Fatal("custom noise model fingerprinted")
	}

	// Every built-in model has an identity, including the paper's
	// footnote-2 ShiftNoise; NoNoise and nil collide (neither perturbs).
	shifted, err := Fingerprint(withNoise(device.ShiftNoise{Shift: 0.001, Base: device.LogNormalNoise{Sigma: 0.1}}))
	if err != nil {
		t.Fatal(err)
	}
	if shifted == value {
		t.Fatal("ShiftNoise collides with SpikyNoise")
	}
	none, err := Fingerprint(withNoise(device.NoNoise{}))
	if err != nil {
		t.Fatal(err)
	}
	nilNoise, err := Fingerprint(withNoise(nil))
	if err != nil {
		t.Fatal(err)
	}
	if none != nilNoise {
		t.Fatal("NoNoise and nil noise are behaviorally identical but fingerprint differently")
	}
}

func TestResultWireRoundTrip(t *testing.T) {
	study, err := NewStudy(StudyConfig{Program: smallProgram(), N: 8, Reps: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalResultWire(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := back.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("wire round trip is lossy")
	}
	// Profiles survive the wire, so remote clients can drive the decision
	// models directly.
	p, err := back.ProfileByName(res.Profiles[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if p != res.Profiles[0] {
		t.Fatalf("profile differs after round trip: %+v vs %+v", p, res.Profiles[0])
	}
	if _, err := back.ProfileByName("ZZZ"); err == nil {
		t.Fatal("unknown profile name accepted")
	}
}

func TestStudySeedValidation(t *testing.T) {
	if _, err := StudySeed(1, "zz"); err == nil {
		t.Fatal("malformed fingerprint accepted")
	}
	a, err := StudySeed(1, "00112233445566778899aabbccddeeff")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := StudySeed(2, "00112233445566778899aabbccddeeff")
	if a == b {
		t.Fatal("suite seed does not reach the derived study seed")
	}
}

func TestRunOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	study, err := NewStudy(StudyConfig{Program: smallProgram(), N: 10, Reps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := study.RunOn(ctx, NewBudget(2)); err == nil {
		t.Fatal("cancelled study returned a result")
	}
}
