package core

import (
	"math"
	"testing"

	"relperf/internal/compare"
	"relperf/internal/xrand"
)

// fixedFork adapts a deterministic, concurrency-safe comparison into a
// Fork: every repetition shares it and the seed is ignored.
func fixedFork(cf CompareFunc) func(uint64) CompareFunc {
	return func(uint64) CompareFunc { return cf }
}

// Equivalence probabilities of scoresComparator's two stochastic pairs.
const (
	pEquivADAA = 1.0 / 3.0
	pEquivDDDA = 0.7
)

// scoresComparator models the Section III relative-score example: the same
// ground truth as Figure 2, but at N=30 the AD-vs-AA comparison evaluates
// "equivalent" once in every three comparisons, and the DD-vs-DA pair is
// mostly equivalent with occasional splits. It has the Fork shape: each seed
// yields an independent stream over the same ground truth.
func scoresComparator(seed uint64) CompareFunc {
	rng := xrand.New(seed)
	return scoresOutcomes(func(pEquiv float64) bool { return rng.Bernoulli(pEquiv) })
}

// scoresOutcomes is scoresComparator's decision table; equiv decides each
// stochastic comparison, given the pair's equivalence probability.
func scoresOutcomes(equiv func(pEquiv float64) bool) CompareFunc {
	class := map[int]int{algAD: 0, algAA: 1, algDD: 2, algDA: 2}
	return func(i, j int) (compare.Outcome, error) {
		ci, cj := class[i], class[j]
		// The borderline pair: AD vs AA.
		if (i == algAD && j == algAA) || (i == algAA && j == algAD) {
			if equiv(pEquivADAA) {
				return compare.Equivalent, nil
			}
			if i == algAD {
				return compare.Better, nil
			}
			return compare.Worse, nil
		}
		// The overlapping pair: DD vs DA, equivalent 70% of the time with
		// DD slightly ahead otherwise.
		if (i == algDD && j == algDA) || (i == algDA && j == algDD) {
			if equiv(pEquivDDDA) {
				return compare.Equivalent, nil
			}
			if i == algDD {
				return compare.Better, nil
			}
			return compare.Worse, nil
		}
		switch {
		case ci < cj:
			return compare.Better, nil
		case ci > cj:
			return compare.Worse, nil
		default:
			return compare.Equivalent, nil
		}
	}
}

// exactScores returns the exact expected relative scores of
// scoresComparator under Procedure 4: want[alg][r-1] is the probability
// that alg lands rank r, averaged over all 24 equally likely initial orders
// and summed over the comparator's outcome tree. Each order's tree is
// walked depth-first by replaying a path of branch choices (0 =
// equivalent, 1 = decisive) through Sort, advancing it like an odometer.
func exactScores(t *testing.T) [4][4]float64 {
	t.Helper()
	var want [4][4]float64
	orders := permutations([]int{0, 1, 2, 3})
	for _, initial := range orders {
		var path []int
		for {
			prob, depth := 1.0, 0
			cf := scoresOutcomes(func(pEquiv float64) bool {
				if depth == len(path) {
					path = append(path, 0)
				}
				c := path[depth]
				depth++
				if c == 0 {
					prob *= pEquiv
					return true
				}
				prob *= 1 - pEquiv
				return false
			})
			sr, err := Sort(4, cf, SortOptions{Initial: initial})
			if err != nil {
				t.Fatal(err)
			}
			for pos, alg := range sr.Order {
				want[alg][sr.Ranks[pos]-1] += prob / float64(len(orders))
			}
			for len(path) > 0 && path[len(path)-1] == 1 {
				path = path[:len(path)-1]
			}
			if len(path) == 0 {
				break
			}
			path[len(path)-1] = 1
		}
	}
	return want
}

// permutations lists every ordering of xs.
func permutations(xs []int) [][]int {
	if len(xs) <= 1 {
		return [][]int{append([]int(nil), xs...)}
	}
	var out [][]int
	for i := range xs {
		rest := append(append([]int(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{xs[i]}, p...))
		}
	}
	return out
}

func TestClusterRelativeScoreExample(t *testing.T) {
	// Reproduces the structure of the paper's Section III scores:
	//   C1: {AD 1.0, AA ≈ 0.4}
	//   C2: {AA ≈ 0.6, DD, DA}
	//   lower clusters: DD, DA with the remaining mass.
	const reps = 1000
	res, err := Cluster(4, ClusterOptions{Reps: reps, Seed: 5, Fork: scoresComparator})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != reps || res.P != 4 {
		t.Fatalf("meta wrong: %+v", res)
	}

	// Every score row must sum to 1: each repetition assigns exactly one rank.
	for a := 0; a < 4; a++ {
		var sum float64
		for r := 0; r < res.K; r++ {
			sum += res.Scores[a][r]
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Fatalf("scores of alg %d sum to %v", a, sum)
		}
	}

	// AD is always in the top cluster.
	if !almostEq(res.Scores[algAD][0], 1.0, 1e-9) {
		t.Fatalf("AD rank-1 score = %v, want 1.0", res.Scores[algAD][0])
	}
	// AA shares C1 with AD whenever an AD-AA comparison comes out
	// equivalent ("once in every three comparisons"). Some initial orders
	// compare the pair more than once, so the exact rank-1 score is above
	// 1/3; each rank score is a binomial proportion over the repetitions,
	// so it must lie within 4σ of the exact value.
	want := exactScores(t)
	for r := 0; r < 2; r++ {
		p := want[algAA][r]
		sigma := math.Sqrt(p * (1 - p) / reps)
		if s := res.Scores[algAA][r]; math.Abs(s-p) > 4*sigma {
			t.Fatalf("AA rank-%d score = %v, want %.4f ± %.4f (4σ)", r+1, s, p, 4*sigma)
		}
	}
	// DD and DA never reach the top cluster.
	if res.Scores[algDD][0] != 0 || res.Scores[algDA][0] != 0 {
		t.Fatal("DD/DA should never be rank 1")
	}
	// GetCluster(1) lists AD first with score 1.0.
	c1, err := res.GetCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	if c1[0].Alg != algAD || !almostEq(c1[0].Score, 1.0, 1e-9) {
		t.Fatalf("C1 = %+v", c1)
	}
	if _, err := res.GetCluster(0); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := res.GetCluster(res.K + 1); err == nil {
		t.Fatal("overflow rank accepted")
	}
}

func TestClusterFinalAssignmentExample(t *testing.T) {
	// The paper's final clustering from the same example:
	//   C1: {AD 1.0}; C2: {AA 1.0}; C3: {DD 1.0, DA ≈ 0.9}
	res, err := Cluster(4, ClusterOptions{Reps: 1000, Seed: 9, Fork: scoresComparator})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := res.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if fa.Rank[algAD] != 1 {
		t.Fatalf("AD final rank = %d", fa.Rank[algAD])
	}
	if !almostEq(fa.Score[algAD], 1.0, 1e-9) {
		t.Fatalf("AD final score = %v", fa.Score[algAD])
	}
	if fa.Rank[algAA] != 2 {
		t.Fatalf("AA final rank = %d", fa.Rank[algAA])
	}
	// AA's cumulated score includes its C1 mass: must be exactly 1.
	if !almostEq(fa.Score[algAA], 1.0, 1e-9) {
		t.Fatalf("AA final score = %v, want 1.0 after cumulation", fa.Score[algAA])
	}
	if fa.Rank[algDD] != 3 || fa.Rank[algDA] != 3 {
		t.Fatalf("DD/DA final ranks = %d/%d, want 3/3", fa.Rank[algDD], fa.Rank[algDA])
	}
	// DA's cumulated score is below 1 when it sometimes fell to rank 4.
	if fa.Score[algDA] <= 0.5 || fa.Score[algDA] > 1.0 {
		t.Fatalf("DA final score = %v", fa.Score[algDA])
	}
	if fa.K != 3 {
		t.Fatalf("final K = %d, want 3", fa.K)
	}
	// Classes listing is consistent with Rank.
	for r, class := range fa.Classes {
		for _, m := range class {
			if fa.Rank[m.Alg] != r+1 {
				t.Fatalf("class listing inconsistent at rank %d", r+1)
			}
		}
	}
}

func TestClusterDeterministicGivenSeeds(t *testing.T) {
	a, err := Cluster(4, ClusterOptions{Reps: 50, Seed: 4, Fork: scoresComparator})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(4, ClusterOptions{Reps: 50, Seed: 4, Fork: scoresComparator})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		for r := range a.Scores[i] {
			if a.Scores[i][r] != b.Scores[i][r] {
				t.Fatal("clustering not reproducible under fixed seeds")
			}
		}
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(0, ClusterOptions{Fork: fixedFork(fig2Comparator)}); err != ErrNoAlgorithms {
		t.Fatal("p=0 accepted")
	}
	boom := func(i, j int) (compare.Outcome, error) {
		return 0, compare.ErrBadSample
	}
	if _, err := Cluster(3, ClusterOptions{Reps: 2, Fork: fixedFork(boom)}); err == nil {
		t.Fatal("comparator error swallowed")
	}
}

func TestClusterDefaultReps(t *testing.T) {
	res, err := Cluster(4, ClusterOptions{Fork: fixedFork(fig2Comparator)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 100 {
		t.Fatalf("default reps = %d", res.Reps)
	}
}

func TestClusterDeterministicComparatorGivesCrispScores(t *testing.T) {
	// With the deterministic Figure-2 comparator every repetition must land
	// the same clusters regardless of the shuffle.
	res, err := Cluster(4, ClusterOptions{Reps: 200, Seed: 17, Fork: fixedFork(fig2Comparator)})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d, want 3", res.K)
	}
	if res.MeanK != 3 {
		t.Fatalf("MeanK = %v, want exactly 3", res.MeanK)
	}
	wantRank := map[int]int{algAD: 1, algAA: 2, algDD: 3, algDA: 3}
	for alg, r := range wantRank {
		if !almostEq(res.Scores[alg][r-1], 1.0, 1e-9) {
			t.Fatalf("alg %s score at rank %d = %v, want 1.0 (scores %v)",
				fig2Names[alg], r, res.Scores[alg][r-1], res.Scores[alg])
		}
	}
}

func TestClusterSingleAlgorithm(t *testing.T) {
	res, err := Cluster(1, ClusterOptions{Reps: 10, Fork: fixedFork(fig2Comparator)})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 || !almostEq(res.Scores[0][0], 1, 1e-9) {
		t.Fatalf("single-algorithm clustering wrong: %+v", res)
	}
	fa, err := res.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if fa.K != 1 || fa.Rank[0] != 1 || !almostEq(fa.Score[0], 1, 1e-9) {
		t.Fatalf("single-algorithm finalize wrong: %+v", fa)
	}
}

func TestFinalizeCompactsGaps(t *testing.T) {
	// Construct a result where chosen raw ranks are 1 and 3 (gap at 2):
	// finalize must compact to 1 and 2.
	res := &ClusterResult{
		P: 2, Reps: 10, K: 3,
		Scores: [][]float64{
			{0.9, 0.1, 0.0},
			{0.0, 0.2, 0.8},
		},
	}
	fa, err := res.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if fa.Rank[0] != 1 || fa.Rank[1] != 2 {
		t.Fatalf("compacted ranks = %v", fa.Rank)
	}
	if fa.K != 2 {
		t.Fatalf("K = %d", fa.K)
	}
	// Algorithm 1's final score cumulates ranks 1..3 = 1.0.
	if !almostEq(fa.Score[1], 1.0, 1e-9) {
		t.Fatalf("cumulated score = %v", fa.Score[1])
	}
}

func TestClusterMembershipListsSortedByScore(t *testing.T) {
	res, err := Cluster(4, ClusterOptions{Reps: 500, Seed: 7, Fork: scoresComparator})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < res.K; r++ {
		for i := 1; i < len(res.Clusters[r]); i++ {
			if res.Clusters[r][i].Score > res.Clusters[r][i-1].Score {
				t.Fatalf("cluster %d not sorted by score: %+v", r+1, res.Clusters[r])
			}
		}
	}
}

func BenchmarkCluster8AlgsRep100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(4, ClusterOptions{Reps: 100, Seed: uint64(i), Fork: scoresComparator}); err != nil {
			b.Fatal(err)
		}
	}
}
