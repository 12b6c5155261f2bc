package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"relperf/internal/compare"
	"relperf/internal/xrand"
)

func TestPairIndexRoundTrip(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13} {
		k := 0
		for i := 0; i < p-1; i++ {
			for j := i + 1; j < p; j++ {
				if got := pairIndex(p, i, j); got != k {
					t.Fatalf("pairIndex(%d,%d,%d) = %d, want %d", p, i, j, got, k)
				}
				gi, gj := pairFromIndex(p, k)
				if gi != i || gj != j {
					t.Fatalf("pairFromIndex(%d,%d) = (%d,%d), want (%d,%d)", p, k, gi, gj, i, j)
				}
				k++
			}
		}
	}
}

func TestClusterMatrixWorkerDeterminism(t *testing.T) {
	run := func(workers int) *ClusterResult {
		cr, err := ClusterMatrix(4, MatrixOptions{
			Reps: 50, Trials: 24, Workers: workers, Seed: 9, Fork: scoresComparator,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := run(w)
		if got.K != ref.K || got.MeanK != ref.MeanK {
			t.Fatalf("workers=%d meta differs: %+v vs %+v", w, got, ref)
		}
		for a := range ref.Scores {
			for r := range ref.Scores[a] {
				if got.Scores[a][r] != ref.Scores[a][r] {
					t.Fatalf("workers=%d score[%d][%d] differs", w, a, r)
				}
			}
		}
	}
}

func TestClusterMatrixPreservesFractionalScores(t *testing.T) {
	// The AD-vs-AA pair is equivalent once in three comparisons; the cached
	// distribution must keep AD's and AA's rank-1 mass fractional, like the
	// live path.
	cr, err := ClusterMatrix(4, MatrixOptions{
		Reps: 400, Trials: 120, Seed: 3, Fork: scoresComparator,
	})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		var sum float64
		for r := 0; r < cr.K; r++ {
			sum += cr.Scores[a][r]
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Fatalf("scores of alg %d sum to %v", a, sum)
		}
	}
	// AD leads C1 always; AA lands in C1 roughly 1/3 of the time.
	if !almostEq(cr.Scores[algAD][0], 1.0, 1e-9) {
		t.Fatalf("AD rank-1 score = %v, want 1.0", cr.Scores[algAD][0])
	}
	aa := cr.Scores[algAA][0]
	if aa < 0.15 || aa > 0.55 {
		t.Fatalf("AA rank-1 score = %v, want fractional near 1/3", aa)
	}
}

// TestClusterMatrixAdaptiveTrials: a clearly-ordered pair saturates after
// the minimum trial floor and stops paying for the full budget, while a
// mixed-outcome pair runs to the cap. Both remain deterministic.
func TestClusterMatrixAdaptiveTrials(t *testing.T) {
	const trials = 64
	var unanimousCalls, mixedCalls int64
	fork := func(seed uint64) CompareFunc {
		rng := xrand.New(seed)
		return func(i, j int) (compare.Outcome, error) {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo == 0 && hi == 1 {
				atomic.AddInt64(&unanimousCalls, 1)
				if i < j {
					return compare.Better, nil
				}
				return compare.Worse, nil
			}
			atomic.AddInt64(&mixedCalls, 1)
			if rng.Bernoulli(0.5) {
				return compare.Equivalent, nil
			}
			if i < j {
				return compare.Better, nil
			}
			return compare.Worse, nil
		}
	}
	if _, err := ClusterMatrix(3, MatrixOptions{Reps: 5, Trials: trials, Seed: 17, Fork: fork}); err != nil {
		t.Fatal(err)
	}
	if unanimousCalls != minSaturationTrials {
		t.Fatalf("unanimous pair ran %d trials, want early stop at %d", unanimousCalls, minSaturationTrials)
	}
	// Two mixed pairs: (0,2) and (1,2). A run of 8 equal outcomes is
	// possible but did not occur for this seed; the point is the cap.
	if mixedCalls != 2*trials {
		t.Fatalf("mixed pairs ran %d trials, want %d (no early stop)", mixedCalls, 2*trials)
	}
}

func TestClusterMatrixValidation(t *testing.T) {
	if _, err := ClusterMatrix(0, MatrixOptions{Fork: scoresComparator}); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := ClusterMatrix(3, MatrixOptions{}); err == nil {
		t.Fatal("nil Fork accepted")
	}
}

func TestClusterMatrixPairErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	fork := func(seed uint64) CompareFunc {
		return func(i, j int) (compare.Outcome, error) {
			if i == 1 && j == 2 {
				return compare.Equivalent, boom
			}
			return compare.Equivalent, nil
		}
	}
	if _, err := ClusterMatrix(4, MatrixOptions{Reps: 10, Trials: 4, Seed: 1, Fork: fork}); !errors.Is(err, boom) {
		t.Fatalf("pair error not propagated: %v", err)
	}
}

func TestClusterForkErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	fork := func(seed uint64) CompareFunc {
		return func(i, j int) (compare.Outcome, error) { return compare.Equivalent, boom }
	}
	if _, err := Cluster(4, ClusterOptions{Reps: 8, Workers: 4, Fork: fork}); !errors.Is(err, boom) {
		t.Fatalf("repetition error not propagated: %v", err)
	}
}

// TestClusterNilCmpAndForkRejected: Fork is the only way to supply the
// comparison, so a nil Fork is rejected.
func TestClusterNilCmpAndForkRejected(t *testing.T) {
	if _, err := Cluster(3, ClusterOptions{Reps: 5}); err == nil {
		t.Fatal("nil Fork accepted")
	}
}

func TestClusterForkSingleAlgorithm(t *testing.T) {
	fork := func(seed uint64) CompareFunc {
		return func(i, j int) (compare.Outcome, error) { return compare.Equivalent, nil }
	}
	cr, err := Cluster(1, ClusterOptions{Reps: 5, Fork: fork})
	if err != nil {
		t.Fatal(err)
	}
	if cr.K != 1 || cr.Scores[0][0] != 1 {
		t.Fatalf("single-algorithm clustering wrong: %+v", cr)
	}
	cm, err := ClusterMatrix(1, MatrixOptions{Reps: 5, Fork: fork})
	if err != nil {
		t.Fatal(err)
	}
	if cm.K != 1 {
		t.Fatalf("single-algorithm matrix clustering wrong: %+v", cm)
	}
}

// TestForkedBootstrapAgainstSerial: clustering measured-style data with
// forked bootstrap comparators yields the same class structure as a single
// serial Procedure-1 sort with one shared bootstrap comparator on clearly
// separated inputs.
func TestForkedBootstrapAgainstSerial(t *testing.T) {
	rng := xrand.New(31)
	data := make([][]float64, 4)
	for i := range data {
		m := 1 + 0.5*float64(i)
		data[i] = make([]float64, 25)
		for j := range data[i] {
			data[i][j] = m * rng.LogNormal(0, 0.03)
		}
	}
	proto := compare.NewBootstrap(0)
	fork := func(seed uint64) CompareFunc {
		c := proto.Fork(seed)
		return func(i, j int) (compare.Outcome, error) { return c.Compare(data[i], data[j]) }
	}
	parallel, err := Cluster(4, ClusterOptions{Reps: 30, Seed: 2, Workers: 4, Fork: fork})
	if err != nil {
		t.Fatal(err)
	}
	serialCmp := compare.NewBootstrap(3)
	cf := func(i, j int) (compare.Outcome, error) { return serialCmp.Compare(data[i], data[j]) }
	serial, err := Sort(4, cf, SortOptions{Initial: []int{3, 1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if parallel.K != serial.K() {
		t.Fatalf("class counts differ on separated data: parallel %d, serial %d", parallel.K, serial.K())
	}
	for a := 0; a < 4; a++ {
		if parallel.Scores[a][a] != 1 || serial.RankOf(a) != a+1 {
			t.Fatalf("separated data not cleanly ranked: parallel %v serial rank %d", parallel.Scores[a], serial.RankOf(a))
		}
	}
}
