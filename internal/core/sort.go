// Package core implements the paper's contribution: clustering a set of
// mathematically-equivalent algorithms into performance classes via a bubble
// sort whose comparator is three-way (better / worse / equivalent), and
// scoring cluster membership by repeated clustering over reshuffled inputs.
//
// The three procedures of Section III are implemented faithfully:
//
//   - Procedure 1 (SortAlgs): bubble sort driven by a three-way comparison,
//     maintaining a rank per sequence position.
//   - Procedure 2 (UpdateAlgIndices): swap on "worse".
//   - Procedure 3 (UpdateAlgRanks): merge ranks on "equivalent"; after a
//     swap, merge the displaced suffix downward when the winner already
//     belonged to the predecessor's class, or split the class upward when
//     the winner defeated a member of its own class from the top.
//   - Procedure 4 (GetCluster / Cluster): repeat the sort over shuffled
//     inputs and report per-cluster relative scores w/Rep.
//
// The semantics of the rank updates are pinned by the worked example of the
// paper's Figure 2, which TestFigure2TraceExact reproduces step by step.
//
// # Parallel clustering and the determinism contract
//
// Cluster executes its repetitions concurrently: every repetition derives
// its shuffle and its comparator (ClusterOptions.Fork) from RNG streams
// keyed by the repetition index (xrand.Mix), results land in
// rep-indexed slots, and the aggregation happens after all repetitions
// complete — so equal seeds produce bit-identical ClusterResults at every
// worker count. ClusterMatrix additionally precomputes each pair's outcome
// distribution once (in parallel) and lets the repetitions sample outcomes
// from the cache, preserving the fractional-score semantics at a fraction
// of the comparator cost.
package core

import (
	"errors"
	"fmt"

	"relperf/internal/compare"
)

// CompareFunc compares two algorithms identified by index, returning the
// outcome for i relative to j. Implementations are typically backed by a
// measurement-based comparator (compare.Bootstrap over two samples) and may
// be stochastic.
type CompareFunc func(i, j int) (compare.Outcome, error)

// ErrNoAlgorithms is returned when a sort or clustering is requested over an
// empty set.
var ErrNoAlgorithms = errors.New("core: need at least one algorithm")

// Step records one comparison of the sort for trace rendering (the paper's
// Figure 2).
type Step struct {
	// Pass is the 1-based bubble-sort pass, Pos the 0-based left position
	// of the compared pair.
	Pass, Pos int
	// Left and Right are the algorithm indices compared (before any swap).
	Left, Right int
	// Outcome is Left's outcome relative to Right.
	Outcome compare.Outcome
	// Swapped reports whether the pair exchanged positions.
	Swapped bool
	// RankShift is the adjustment applied to the suffix starting right of
	// the pair: -1 (merge), +1 (split) or 0.
	RankShift int
	// OrderAfter and RanksAfter snapshot the sequence after the update.
	OrderAfter []int
	RanksAfter []int
}

// SortResult is the outcome of Procedure 1: the sorted order, the rank of
// every position, and optionally the full comparison trace.
type SortResult struct {
	// Order[pos] is the algorithm index at sorted position pos
	// (best first).
	Order []int
	// Ranks[pos] is the 1-based performance class of position pos. Ranks
	// are non-decreasing along the sequence and adjacent positions differ
	// by at most 1.
	Ranks []int
	// Comparisons counts comparator invocations.
	Comparisons int
	// Trace holds per-comparison records when tracing was requested.
	Trace []Step
}

// K returns the number of performance classes.
func (r *SortResult) K() int {
	if len(r.Ranks) == 0 {
		return 0
	}
	return r.Ranks[len(r.Ranks)-1]
}

// RankOf returns the rank assigned to the given algorithm index, or 0 when
// the algorithm is not present.
func (r *SortResult) RankOf(alg int) int {
	for pos, a := range r.Order {
		if a == alg {
			return r.Ranks[pos]
		}
	}
	return 0
}

// Clusters groups the sorted algorithms by rank: element r-1 lists the
// algorithm indices of class r in sequence order.
func (r *SortResult) Clusters() [][]int {
	out := make([][]int, r.K())
	for pos, a := range r.Order {
		k := r.Ranks[pos] - 1
		out[k] = append(out[k], a)
	}
	return out
}

// SortOptions configures Procedure 1.
type SortOptions struct {
	// Initial is the starting sequence (algorithm indices); nil means
	// 0..p-1. Procedure 4 shuffles this between repetitions.
	Initial []int
	// RecordTrace captures per-comparison Steps (costs allocations).
	RecordTrace bool
}

// Sort runs Procedure 1 over p algorithms using cmp as the three-way
// comparison. The initial ranks are 1..p (line 2 of Procedure 1); every
// comparison applies Procedure 2 (index update) and Procedure 3 (rank
// update).
func Sort(p int, cmp CompareFunc, opts SortOptions) (*SortResult, error) {
	if p <= 0 {
		return nil, ErrNoAlgorithms
	}
	if cmp == nil {
		return nil, errors.New("core: nil compare function")
	}
	order := make([]int, p)
	if opts.Initial != nil {
		if len(opts.Initial) != p {
			return nil, fmt.Errorf("core: initial sequence has %d entries for %d algorithms", len(opts.Initial), p)
		}
		seen := make([]bool, p)
		for _, a := range opts.Initial {
			if a < 0 || a >= p || seen[a] {
				return nil, fmt.Errorf("core: initial sequence is not a permutation of 0..%d", p-1)
			}
			seen[a] = true
		}
		copy(order, opts.Initial)
	} else {
		for i := range order {
			order[i] = i
		}
	}
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i + 1
	}
	res := &SortResult{Order: order, Ranks: ranks}

	for pass := 1; pass <= p; pass++ {
		// Bubble pass: positions 0..p-pass-1, left to right, per the loop
		// bounds of Procedure 1 (j = 0..p-i-1).
		for j := 0; j+1 < p && j < p-pass; j++ {
			left, right := order[j], order[j+1]
			outcome, err := cmp(left, right)
			if err != nil {
				return nil, fmt.Errorf("core: comparing alg %d vs %d: %w", left, right, err)
			}
			res.Comparisons++
			swapped := false
			shift := 0

			switch outcome {
			case compare.Worse:
				// Procedure 2: the worse algorithm moves right; ranks stay
				// attached to positions.
				order[j], order[j+1] = order[j+1], order[j]
				swapped = true
				// Procedure 3, swapped case. The winner now sits at j.
				samePred := j > 0 && ranks[j] == ranks[j-1]
				sameSucc := ranks[j] == ranks[j+1]
				switch {
				case samePred && !sameSucc:
					// The winner belongs to the predecessor's class, so the
					// displaced loser's class merges downward.
					shift = -1
				case sameSucc && !samePred:
					// The winner defeated a member of its own class from
					// the top (a missing predecessor counts as a different
					// class): the rest of the class is pushed down.
					shift = +1
				}
			case compare.Equivalent:
				// Procedure 3, merge case: equivalent neighbours must share
				// a rank.
				if ranks[j] != ranks[j+1] {
					shift = -1
				}
			case compare.Better:
				// No index or rank update.
			default:
				return nil, fmt.Errorf("core: comparator returned invalid outcome %v", outcome)
			}

			if shift != 0 {
				for k := j + 1; k < p; k++ {
					ranks[k] += shift
				}
			}

			if opts.RecordTrace {
				res.Trace = append(res.Trace, Step{
					Pass: pass, Pos: j,
					Left: left, Right: right,
					Outcome: outcome, Swapped: swapped, RankShift: shift,
					OrderAfter: append([]int(nil), order...),
					RanksAfter: append([]int(nil), ranks...),
				})
			}
		}
	}
	return res, nil
}

// ValidateInvariants checks the structural invariants every sort result must
// satisfy; the property tests and the clustering layer rely on them.
func (r *SortResult) ValidateInvariants() error {
	p := len(r.Order)
	if len(r.Ranks) != p {
		return fmt.Errorf("core: order/ranks length mismatch %d/%d", p, len(r.Ranks))
	}
	if p == 0 {
		return nil
	}
	seen := make([]bool, p)
	for _, a := range r.Order {
		if a < 0 || a >= p || seen[a] {
			return fmt.Errorf("core: order is not a permutation")
		}
		seen[a] = true
	}
	if r.Ranks[0] != 1 {
		return fmt.Errorf("core: first rank is %d, want 1", r.Ranks[0])
	}
	for i := 1; i < p; i++ {
		d := r.Ranks[i] - r.Ranks[i-1]
		if d != 0 && d != 1 {
			return fmt.Errorf("core: rank step %d at position %d", d, i)
		}
	}
	return nil
}
