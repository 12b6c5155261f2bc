package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"relperf/internal/pool"
	"relperf/internal/xrand"
)

// ClusterOptions configures Procedure 4.
type ClusterOptions struct {
	// Reps is the number of shuffled sort repetitions (the paper's Rep);
	// default 100. The measurements are NOT re-collected between
	// repetitions (paper footnote 5) — only the initial order and the
	// comparator's internal bootstrap randomness vary.
	Reps int
	// Seed keys every stochastic stream of the stage: the per-repetition
	// shuffles and the per-repetition comparator forks.
	Seed uint64
	// Workers bounds the number of concurrent repetitions; 0 means
	// GOMAXPROCS. The results do not depend on this value.
	Workers int
	// Fork returns an independent comparison function for one repetition,
	// fully determined by seed; required. Every repetition — at any worker
	// count, including 1 — derives its shuffle and its comparator from
	// per-repetition keyed streams (xrand.Mix of Seed and the repetition
	// index), so equal seeds produce bit-identical ClusterResults
	// regardless of Workers. A deterministic comparison may ignore seed and
	// return one shared function, provided it is safe for concurrent use.
	Fork func(seed uint64) CompareFunc
	// Pool, when non-nil, routes every repetition through a shared global
	// worker budget instead of a transient pool of Workers goroutines, so
	// concurrent clustering stages of many studies collectively respect one
	// concurrency bound. Results are identical either way.
	Pool *pool.Pool
	// Ctx cancels the clustering stage early (fleet shutdown); nil means
	// Background. Cancellation aborts with the context's error — it never
	// yields a partial result.
	Ctx context.Context
}

// Membership is one algorithm's relative score with respect to a cluster.
// The JSON tags define the machine-readable wire format served by the
// fleet daemon and persisted in result snapshots.
type Membership struct {
	// Alg is the algorithm index.
	Alg int `json:"alg"`
	// Score is w/Rep: the fraction of repetitions assigning Alg this rank.
	Score float64 `json:"score"`
}

// ClusterResult is the outcome of Procedure 4 over all ranks.
type ClusterResult struct {
	// P is the number of algorithms, Reps the repetitions performed.
	P    int `json:"p"`
	Reps int `json:"reps"`
	// Scores[alg][r-1] is the relative score of algorithm alg for rank r.
	// Rows sum to 1 (every repetition assigns exactly one rank).
	Scores [][]float64 `json:"scores"`
	// Clusters[r-1] lists, in decreasing score order, the algorithms that
	// obtained rank r in at least one repetition — the paper's
	// GetCluster(A, Rep, r) output.
	Clusters [][]Membership `json:"clusters"`
	// K is the largest rank observed in any repetition.
	K int `json:"k"`
	// MeanK is the average cluster count across repetitions.
	MeanK float64 `json:"mean_k"`
}

// Cluster repeats Procedure 1 Reps times over shuffled initial sequences and
// aggregates the rank assignments into relative scores (Procedure 4 for
// every rank at once).
//
// The repetitions are independent work units: each derives its shuffle and
// its comparator from streams keyed by the repetition index, and they
// execute on a pool of opts.Workers goroutines (or opts.Pool) with ordered
// result collection. The output is bit-identical for equal (p, Reps, Seed,
// Fork) at every worker count.
func Cluster(p int, opts ClusterOptions) (*ClusterResult, error) {
	if p <= 0 {
		return nil, ErrNoAlgorithms
	}
	if opts.Fork == nil {
		return nil, errors.New("core: Cluster requires Fork")
	}
	reps := opts.Reps
	if reps <= 0 {
		reps = 100
	}
	results, err := runReps(p, reps, opts)
	if err != nil {
		return nil, err
	}
	counts := make([][]int, p)
	for i := range counts {
		counts[i] = make([]int, p) // rank r stored at r-1; ranks never exceed p
	}
	res := &ClusterResult{P: p, Reps: reps}
	var sumK int
	for _, sr := range results {
		for pos, alg := range sr.Order {
			r := sr.Ranks[pos]
			counts[alg][r-1]++
			if r > res.K {
				res.K = r
			}
		}
		sumK += sr.K()
	}
	res.MeanK = float64(sumK) / float64(reps)

	res.Scores = make([][]float64, p)
	for a := 0; a < p; a++ {
		res.Scores[a] = make([]float64, res.K)
		for r := 0; r < res.K; r++ {
			res.Scores[a][r] = float64(counts[a][r]) / float64(reps)
		}
	}
	res.Clusters = make([][]Membership, res.K)
	for r := 0; r < res.K; r++ {
		for a := 0; a < p; a++ {
			if counts[a][r] > 0 {
				res.Clusters[r] = append(res.Clusters[r], Membership{Alg: a, Score: res.Scores[a][r]})
			}
		}
		sort.SliceStable(res.Clusters[r], func(i, j int) bool {
			return res.Clusters[r][i].Score > res.Clusters[r][j].Score
		})
	}
	return res, nil
}

// runReps executes the clustering repetitions on a bounded worker pool.
// Repetition rep shuffles with the stream keyed by 2·rep and forks its
// comparator with the seed keyed by 2·rep+1, so no randomness flows between
// repetitions and the per-repetition results do not depend on scheduling.
// Results are collected into a rep-indexed slice (ordered collection); the
// first error in repetition order wins.
func runReps(p, reps int, opts ClusterOptions) ([]*SortResult, error) {
	results := make([]*SortResult, reps)
	err := pool.ForEach(opts.Ctx, opts.Pool, reps, opts.Workers, func(rep int) error {
		// Seeded in place: the stream of xrand.NewKeyed without its heap
		// generator.
		var rng xrand.Rand
		rng.Seed(xrand.Mix(opts.Seed, uint64(2*rep)))
		cmp := opts.Fork(xrand.Mix(opts.Seed, uint64(2*rep+1)))
		sr, err := Sort(p, cmp, SortOptions{Initial: rng.Perm(p)})
		if err != nil {
			return fmt.Errorf("core: clustering repetition %d: %w", rep, err)
		}
		results[rep] = sr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// GetCluster returns Procedure 4's output for a single rank r (1-based): the
// algorithms that obtained rank r in at least one repetition, with their
// relative scores, in decreasing score order.
func (c *ClusterResult) GetCluster(r int) ([]Membership, error) {
	if r < 1 || r > c.K {
		return nil, fmt.Errorf("core: rank %d outside 1..%d", r, c.K)
	}
	return c.Clusters[r-1], nil
}

// FinalAssignment resolves the fractional memberships of Procedure 4 into
// one cluster per algorithm, per the end of Section III: each algorithm goes
// to the rank where it scored highest (earliest rank on ties), and its final
// score cumulates the scores of that rank and all better ranks.
type FinalAssignment struct {
	// Rank[alg] is the compacted 1-based final class of the algorithm.
	Rank []int `json:"rank"`
	// Score[alg] is the cumulated relative score.
	Score []float64 `json:"score"`
	// K is the number of distinct final classes.
	K int `json:"k"`
	// Classes[r-1] lists the algorithms of final class r in decreasing
	// score order.
	Classes [][]Membership `json:"classes"`
}

// Finalize computes the max-score assignment with score cumulation.
func (c *ClusterResult) Finalize() (*FinalAssignment, error) {
	if c.P == 0 {
		return nil, ErrNoAlgorithms
	}
	rawRank := make([]int, c.P)
	score := make([]float64, c.P)
	for a := 0; a < c.P; a++ {
		best, bestScore := -1, 0.0
		for r := 0; r < c.K; r++ {
			if s := c.Scores[a][r]; s > bestScore {
				best, bestScore = r, s
			}
		}
		if best < 0 {
			return nil, errors.New("core: algorithm with no rank assignments")
		}
		rawRank[a] = best + 1
		// Cumulate scores from better (smaller) ranks into the final score.
		var cum float64
		for r := 0; r <= best; r++ {
			cum += c.Scores[a][r]
		}
		score[a] = cum
	}

	// Compact the chosen raw ranks to 1..K preserving order.
	distinct := map[int]bool{}
	for _, r := range rawRank {
		distinct[r] = true
	}
	sorted := make([]int, 0, len(distinct))
	for r := range distinct {
		sorted = append(sorted, r)
	}
	sort.Ints(sorted)
	remap := make(map[int]int, len(sorted))
	for i, r := range sorted {
		remap[r] = i + 1
	}

	fa := &FinalAssignment{
		Rank:  make([]int, c.P),
		Score: score,
		K:     len(sorted),
	}
	fa.Classes = make([][]Membership, fa.K)
	for a := 0; a < c.P; a++ {
		fr := remap[rawRank[a]]
		fa.Rank[a] = fr
		fa.Classes[fr-1] = append(fa.Classes[fr-1], Membership{Alg: a, Score: score[a]})
	}
	for r := range fa.Classes {
		sort.SliceStable(fa.Classes[r], func(i, j int) bool {
			return fa.Classes[r][i].Score > fa.Classes[r][j].Score
		})
	}
	return fa, nil
}
