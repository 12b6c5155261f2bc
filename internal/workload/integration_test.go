package workload

import (
	"testing"

	"relperf/internal/compare"
	"relperf/internal/core"
	"relperf/internal/sim"
)

// clusterPlacements runs the full measurement→comparison→clustering pipeline
// for a program over all placements and returns the final assignment plus
// the placement names. Every clustering repetition compares on its own fork
// of the bootstrap comparator, keyed off clusterSeed.
func clusterPlacements(t *testing.T, plat *sim.Platform, prog *sim.Program, nTasks, nMeas int,
	simSeed, clusterSeed uint64) (map[string]int, map[string]float64, *core.ClusterResult) {
	t.Helper()
	s, err := sim.NewSimulator(plat, simSeed)
	if err != nil {
		t.Fatal(err)
	}
	pls := sim.EnumeratePlacements(nTasks)
	samples := make([][]float64, len(pls))
	for i, pl := range pls {
		samples[i], err = s.Sample(prog, pl, nMeas)
		if err != nil {
			t.Fatal(err)
		}
	}
	proto := compare.NewBootstrap(0)
	fork := func(seed uint64) core.CompareFunc {
		cmp := proto.Fork(seed)
		return func(i, j int) (compare.Outcome, error) { return cmp.Compare(samples[i], samples[j]) }
	}
	res, err := core.Cluster(len(pls), core.ClusterOptions{Reps: 100, Seed: clusterSeed, Fork: fork})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := res.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[string]int{}
	scores := map[string]float64{}
	for i, pl := range pls {
		ranks[pl.String()] = fa.Rank[i]
		scores[pl.String()] = fa.Score[i]
	}
	return ranks, scores, res
}

// TestTableIClusterShape is the E4 integration test: the full pipeline over
// the Table-I workload must reproduce the paper's qualitative structure.
// Multiple seeds are tried; the majority must satisfy every shape property
// (individual seeds may produce borderline merges — that fuzziness is the
// paper's own observation).
func TestTableIClusterShape(t *testing.T) {
	type outcome struct {
		ranks  map[string]int
		K      int
		passed bool
	}
	var results []outcome
	for seed := uint64(1); seed <= 5; seed++ {
		plat := TableIPlatform()
		prog := TableI(10, plat.Accel.PeakFlops)
		ranks, _, res := clusterPlacements(t, plat, prog, 3, 30, seed, seed*13+2)
		maxRank := 0
		uniqueWorst := true
		for name, r := range ranks {
			if r > maxRank {
				maxRank = r
			}
			_ = name
		}
		worstCount := 0
		for _, r := range ranks {
			if r == maxRank {
				worstCount++
			}
		}
		uniqueWorst = worstCount == 1
		o := outcome{ranks: ranks, K: res.K}
		o.passed = ranks["DDA"] == 1 && // offloading only L3 is in the best class
			ranks["DDA"] < ranks["DDD"] && // ... and strictly beats all-on-device
			ranks["DDD"] <= ranks["ADA"] && // offloading the small L1 never helps
			ranks["ADA"] <= ranks["AAA"] && // hybrids at least match all-accelerator
			ranks["AAD"] == maxRank && uniqueWorst && // AAD strictly worst, alone
			res.MeanK >= 3.5 && res.MeanK <= 7.5 // about five classes
		results = append(results, o)
	}
	pass := 0
	for _, o := range results {
		if o.passed {
			pass++
		}
	}
	if pass < 3 {
		for i, o := range results {
			t.Logf("seed %d: K=%d ranks=%v passed=%v", i+1, o.K, o.ranks, o.passed)
		}
		t.Fatalf("Table-I shape held for only %d/5 seeds", pass)
	}
}

// TestTableIDAAStraddles asserts the paper's observation that DAA's
// membership is split between the top clusters: across seeds, DAA must never
// rank below DDD's class by more than one, and must sit at or adjacent to
// the top class.
func TestTableIDAAStraddles(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		plat := TableIPlatform()
		prog := TableI(10, plat.Accel.PeakFlops)
		ranks, _, _ := clusterPlacements(t, plat, prog, 3, 30, seed, seed+200)
		if ranks["DAA"] > ranks["DDD"] {
			t.Fatalf("seed %d: DAA (C%d) fell below DDD (C%d)", seed, ranks["DAA"], ranks["DDD"])
		}
		if ranks["DAA"] < ranks["DDA"] {
			t.Fatalf("seed %d: DAA (C%d) beat DDA (C%d)", seed, ranks["DAA"], ranks["DDA"])
		}
	}
}

// TestFigure1ClusterShape is the E1/E2 integration: at N=500 the four
// placements must cluster like the paper's final Figure-2 sequence —
// AD on top, DD and DA sharing a class below AA.
func TestFigure1ClusterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("N=500 clustering is slow")
	}
	good := 0
	for seed := uint64(1); seed <= 3; seed++ {
		plat := Figure1Platform()
		prog := Figure1(plat.Accel.PeakFlops)
		ranks, _, _ := clusterPlacements(t, plat, prog, 2, 500, seed, seed+22)
		ok := ranks["AD"] == 1 &&
			ranks["AA"] >= ranks["AD"] &&
			ranks["DD"] > ranks["AA"] &&
			ranks["DD"] == ranks["DA"]
		if ok {
			good++
		} else {
			t.Logf("seed %d ranks: %v", seed, ranks)
		}
	}
	if good < 2 {
		t.Fatalf("Figure-1 cluster shape held for only %d/3 seeds", good)
	}
}

// TestFigure1ComparisonFlipsNearThreshold checks the Section III
// observation: "For N = 30, algAD is just at the threshold of being better
// than algAA". At N=30 the AD-vs-AA win rate sits near the comparator's
// decision threshold, so for some measurement realizations, repeatedly
// comparing the SAME two samples yields a mix of "better" and "equivalent"
// — the source of the paper's fractional relative scores. At least one of
// the scanned seeds must exhibit mixed outcomes.
func TestFigure1ComparisonFlipsNearThreshold(t *testing.T) {
	cmp := compare.NewBootstrap(77)
	for seed := uint64(1); seed <= 12; seed++ {
		plat := Figure1Platform()
		prog := Figure1(plat.Accel.PeakFlops)
		s, err := sim.NewSimulator(plat, seed)
		if err != nil {
			t.Fatal(err)
		}
		plAD, _ := sim.ParsePlacement("AD")
		plAA, _ := sim.ParsePlacement("AA")
		ad, err := s.Sample(prog, plAD, 30)
		if err != nil {
			t.Fatal(err)
		}
		aa, err := s.Sample(prog, plAA, 30)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[compare.Outcome]int{}
		for i := 0; i < 30; i++ {
			o, err := cmp.Compare(ad, aa)
			if err != nil {
				t.Fatal(err)
			}
			counts[o]++
		}
		if counts[compare.Worse] > 20 {
			t.Fatalf("seed %d: AD mostly worse than AA: %v", seed, counts)
		}
		if len(counts) >= 2 {
			return // found the paper's flip behaviour
		}
	}
	t.Fatal("no seed produced mixed outcomes for the borderline AD-vs-AA pair")
}
