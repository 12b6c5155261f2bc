package search

import (
	"context"
	"errors"
	"testing"

	"relperf/internal/compare"
	"relperf/internal/sim"
	"relperf/internal/workload"
	"relperf/internal/xrand"
)

// syntheticArm returns an arm drawing log-normal times around a median.
func syntheticArm(name string, rng *xrand.Rand, med, sigma float64) Arm {
	return Arm{
		Name: name,
		Measure: func() (float64, error) {
			return med * rng.LogNormal(0, sigma), nil
		},
	}
}

func TestRaceFindsFastArm(t *testing.T) {
	rng := xrand.New(1)
	arms := []Arm{
		syntheticArm("slow1", rng.Split(), 2.0, 0.05),
		syntheticArm("fast", rng.Split(), 1.0, 0.05),
		syntheticArm("slow2", rng.Split(), 3.0, 0.05),
	}
	res, err := Race(context.Background(), arms, compare.NewBootstrap(2), Config{RoundSize: 10, MaxRounds: 5, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Survivors) != 1 || res.Survivors[0] != "fast" {
		t.Fatalf("survivors = %v", res.Survivors)
	}
	// The slow arms must have been eliminated early, saving measurements.
	for _, a := range res.Arms {
		if a.Name != "fast" && a.EliminatedInRound == 0 {
			t.Fatalf("%s never eliminated", a.Name)
		}
		if a.Name != "fast" && a.Measurements >= res.TotalMeasurements/2 {
			t.Fatalf("%s consumed too much budget: %d of %d", a.Name, a.Measurements, res.TotalMeasurements)
		}
	}
}

func TestRaceKeepsEquivalentArms(t *testing.T) {
	rng := xrand.New(3)
	arms := []Arm{
		syntheticArm("a", rng.Split(), 1.0, 0.1),
		syntheticArm("b", rng.Split(), 1.0, 0.1),
		syntheticArm("slow", rng.Split(), 2.0, 0.1),
	}
	res, err := Race(context.Background(), arms, compare.NewBootstrap(4), Config{RoundSize: 15, MaxRounds: 6, Keep: 1, Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The slow arm must go; the survivors must come from the equivalent
	// pair. Whether ONE or BOTH of a/b survive depends on the sampling
	// realization — equivalent algorithms separate by luck with finite
	// samples, which is exactly the nondeterminism the paper's relative
	// scores quantify — so only the invariant part is asserted, and the
	// both-survive case must occur within a few seeds.
	bothSurvivedOnce := false
	for seed := uint64(4); seed < 12; seed++ {
		r, err := Race(context.Background(), arms, compare.NewBootstrap(seed), Config{RoundSize: 15, MaxRounds: 6, Keep: 1, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range r.Survivors {
			if s == "slow" {
				t.Fatal("slow arm survived")
			}
		}
		if len(r.Survivors) == 2 {
			bothSurvivedOnce = true
			break
		}
	}
	if !bothSurvivedOnce {
		t.Fatal("equivalent arms never co-survived across seeds")
	}
	for _, s := range res.Survivors {
		if s == "slow" {
			t.Fatal("slow arm survived")
		}
	}
}

func TestRaceSavesMeasurementsVsExhaustive(t *testing.T) {
	// Racing the 8 Table-I placements must use fewer measurements than the
	// exhaustive campaign (8 × N at the same terminal precision) while
	// still surfacing DDA.
	plat := workload.TableIPlatform()
	prog := workload.TableI(10, plat.Accel.PeakFlops)
	s, err := sim.NewSimulator(plat, 5)
	if err != nil {
		t.Fatal(err)
	}
	var arms []Arm
	for _, pl := range sim.EnumeratePlacements(3) {
		pl := pl
		arms = append(arms, Arm{
			Name: pl.String(),
			Measure: func() (float64, error) {
				return s.Seconds(prog, pl)
			},
		})
	}
	res, err := Race(context.Background(), arms, compare.NewBootstrap(6), Config{RoundSize: 10, MaxRounds: 6, Seed: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := 8 * 60 // 8 placements × the racer's max per-arm budget
	if res.TotalMeasurements >= exhaustive {
		t.Fatalf("racing used %d measurements, exhaustive needs %d", res.TotalMeasurements, exhaustive)
	}
	// DDA must be among the survivors.
	found := false
	for _, name := range res.Survivors {
		if name == "DDA" {
			found = true
		}
	}
	if !found {
		t.Fatalf("DDA not among survivors %v", res.Survivors)
	}
}

func TestRacePriorSubset(t *testing.T) {
	rng := xrand.New(7)
	arms := []Arm{
		{Name: "bad-prior", Prior: 9, Measure: func() (float64, error) { return 1, nil }},
		syntheticArm("good1", rng.Split(), 1.0, 0.05),
		syntheticArm("good2", rng.Split(), 1.2, 0.05),
	}
	arms[1].Prior = 1
	arms[2].Prior = 2
	res, err := Race(context.Background(), arms, compare.NewBootstrap(8), Config{RoundSize: 8, MaxRounds: 4, MaxArms: 2, Seed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedArms != 1 {
		t.Fatalf("skipped = %d", res.SkippedArms)
	}
	for _, a := range res.Arms {
		if a.Name == "bad-prior" {
			t.Fatal("bad-prior arm was raced despite MaxArms")
		}
	}
	if res.Survivors[0] != "good1" {
		t.Fatalf("survivors = %v", res.Survivors)
	}
}

func TestRaceBudget(t *testing.T) {
	rng := xrand.New(9)
	arms := []Arm{
		syntheticArm("a", rng.Split(), 1.0, 0.3),
		syntheticArm("b", rng.Split(), 1.01, 0.3),
	}
	res, err := Race(context.Background(), arms, compare.NewBootstrap(10), Config{RoundSize: 10, MaxRounds: 100, Budget: 55, Seed: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMeasurements > 55 {
		t.Fatalf("budget exceeded: %d", res.TotalMeasurements)
	}
}

func TestRaceErrors(t *testing.T) {
	if _, err := Race(context.Background(), nil, compare.NewBootstrap(1), Config{Seed: 1}, nil); err == nil {
		t.Fatal("empty arms accepted")
	}
	if _, err := Race(context.Background(), []Arm{{Name: "x"}}, nil, Config{}, nil); err == nil {
		t.Fatal("nil comparator accepted")
	}
	boom := errors.New("boom")
	bad := []Arm{
		{Name: "x", Measure: func() (float64, error) { return 0, boom }},
		{Name: "y", Measure: func() (float64, error) { return 1, nil }},
	}
	if _, err := Race(context.Background(), bad, compare.NewBootstrap(1), Config{Seed: 1}, nil); !errors.Is(err, boom) {
		t.Fatal("measurement error lost")
	}
}

func TestRaceSingleArm(t *testing.T) {
	arms := []Arm{{Name: "only", Measure: func() (float64, error) { return 1, nil }}}
	res, err := Race(context.Background(), arms, compare.NewBootstrap(1), Config{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Survivors) != 1 || res.Survivors[0] != "only" {
		t.Fatalf("survivors = %v", res.Survivors)
	}
	if res.Rounds != 0 {
		t.Fatalf("rounds = %d, want 0 (already at Keep)", res.Rounds)
	}
}

func TestMedianHelper(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
}
