package core_test

import (
	"fmt"

	"relperf/internal/compare"
	"relperf/internal/core"
)

// ExampleSort replays the paper's Figure-2 illustration: four algorithms
// (DD, AA, DA, AD) with ground truth "AD fastest, AA second, DD ~ DA" are
// sorted with the three-way comparator.
func ExampleSort() {
	names := []string{"DD", "AA", "DA", "AD"}
	class := []int{2, 1, 2, 0} // smaller = faster
	cmp := func(i, j int) (compare.Outcome, error) {
		switch {
		case class[i] < class[j]:
			return compare.Better, nil
		case class[i] > class[j]:
			return compare.Worse, nil
		default:
			return compare.Equivalent, nil
		}
	}
	res, err := core.Sort(4, cmp, core.SortOptions{})
	if err != nil {
		panic(err)
	}
	for pos, alg := range res.Order {
		if pos > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("(%s,%d)", names[alg], res.Ranks[pos])
	}
	fmt.Printf("\nclasses: %d\n", res.K())
	// Output:
	// (AD,1) (AA,2) (DD,3) (DA,3)
	// classes: 3
}

// ExampleCluster computes relative scores over repeated shuffled sorts with
// a deterministic comparator: every algorithm lands its class with score 1.
// Fork hands each repetition its comparison; a deterministic one ignores
// the seed.
func ExampleCluster() {
	class := []int{2, 1, 2, 0}
	cmp := func(i, j int) (compare.Outcome, error) {
		switch {
		case class[i] < class[j]:
			return compare.Better, nil
		case class[i] > class[j]:
			return compare.Worse, nil
		default:
			return compare.Equivalent, nil
		}
	}
	fork := func(uint64) core.CompareFunc { return cmp }
	res, err := core.Cluster(4, core.ClusterOptions{Reps: 50, Seed: 1, Fork: fork})
	if err != nil {
		panic(err)
	}
	names := []string{"DD", "AA", "DA", "AD"}
	for r := 1; r <= res.K; r++ {
		members, _ := res.GetCluster(r)
		fmt.Printf("C%d:", r)
		for _, m := range members {
			fmt.Printf(" %s(%.2f)", names[m.Alg], m.Score)
		}
		fmt.Println()
	}
	// Output:
	// C1: AD(1.00)
	// C2: AA(1.00)
	// C3: DD(1.00) DA(1.00)
}
