package search

import (
	"context"
	"reflect"
	"testing"

	"relperf/internal/compare"
	"relperf/internal/pool"
	"relperf/internal/xrand"
)

// deterministicArms builds a fresh candidate set whose measurements depend
// only on (seed, arm index, call count) — the measurement stage is serial,
// so every race over these arms observes identical samples.
func deterministicArms(seed uint64) []Arm {
	specs := []struct {
		name string
		med  float64
	}{
		{"fast", 1.0}, {"midA", 1.3}, {"midB", 1.32}, {"slow", 2.2},
	}
	arms := make([]Arm, len(specs))
	for i, sp := range specs {
		rng := xrand.NewKeyed(seed, uint64(i))
		med := sp.med
		arms[i] = Arm{Name: sp.name, Measure: func() (float64, error) {
			return med * rng.LogNormal(0, 0.1), nil
		}}
	}
	return arms
}

// TestRaceDeterministicAcrossWorkers: the parallel comparison stage must
// give bit-identical Results at Workers=1 vs 8, and on a shared pool
// budget, for both a stochastic comparator (bootstrap) and a deterministic
// one (KS).
func TestRaceDeterministicAcrossWorkers(t *testing.T) {
	comparators := map[string]func() compare.Comparator{
		"bootstrap": func() compare.Comparator { return compare.NewBootstrap(99) },
		"ks":        func() compare.Comparator { return compare.KS{} },
	}
	for name, mk := range comparators {
		t.Run(name, func(t *testing.T) {
			run := func(workers int, budget *pool.Pool) *Result {
				cfg := Config{RoundSize: 12, MaxRounds: 5, Seed: 7, Workers: workers}
				res, err := Race(context.Background(), deterministicArms(3), mk(), cfg, budget)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := run(1, nil)
			wide := run(8, nil)
			budgeted := run(0, pool.NewPool(8))
			if !reflect.DeepEqual(serial, wide) {
				t.Fatalf("Workers=1 vs 8 diverged:\n%+v\nvs\n%+v", serial, wide)
			}
			if !reflect.DeepEqual(serial, budgeted) {
				t.Fatal("private pool vs shared budget diverged")
			}
			if len(serial.Survivors) == 0 || serial.Survivors[0] != "fast" {
				t.Fatalf("survivors = %v, want fast first", serial.Survivors)
			}
			for _, a := range serial.Arms {
				if a.Name == "slow" && a.Survived {
					t.Fatal("slow arm survived the race")
				}
			}
		})
	}
}

// TestRaceCancellation: a cancelled context aborts the race with the
// context's error, never a partial result.
func TestRaceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Race(ctx, deterministicArms(1), compare.NewBootstrap(1), Config{}, nil)
	if err == nil || res != nil {
		t.Fatalf("cancelled race returned (%v, %v), want error", res, err)
	}
}

// TestRaceComparatorError: a failing pair surfaces its error from the
// parallel stage.
func TestRaceComparatorError(t *testing.T) {
	cfg := Config{RoundSize: 4, MaxRounds: 2}
	bad := failingComparator{}
	if _, err := Race(context.Background(), deterministicArms(2), bad, cfg, nil); err == nil {
		t.Fatal("comparator error lost in the parallel stage")
	}
}

type failingComparator struct{}

func (failingComparator) Compare(a, b []float64) (compare.Outcome, error) {
	return compare.Equivalent, compare.ErrBadSample
}
func (f failingComparator) Fork(uint64) compare.Comparator { return f }
