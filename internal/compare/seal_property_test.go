package compare

import (
	"math"
	"testing"

	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// sealQuantileLists are the quantile lists the sealing property draws from:
// the default, short and long lists, unsorted ones, duplicates, and the
// extremes 0 and 1.
var sealQuantileLists = [][]float64{
	nil,
	{0.5},
	{0.75, 0.25},
	{0.1, 0.25, 0.5, 0.75, 0.9},
	{0.5, 0.5, 0.25, 0.25, 0.75, 0.75},
	{0, 0.2, 0.4, 0.5, 0.6, 0.8, 1},
	{1, 0, 0.5, 0.5, 0.05},
}

// sealMargins include 0 (the default) and margins at and past 0.5, where
// no win rate reaches Better or Worse.
var sealMargins = []float64{0, 0.02, 0.1, 0.2, 0.3, 0.45, 0.5, 0.7}

// sealRound is the first round at which scoring may stop by the sealing
// rule, stated directly on win rates: threshold(w/T) ==
// threshold((w + left·k)/T). halves[r] holds round r's wins in halves.
func sealRound(c *Bootstrap, halves []int, k int) int {
	rounds := len(halves)
	total := float64(rounds * k)
	w := 0.0
	for r := 0; r < rounds; r++ {
		best := w + float64((rounds-r)*k)
		if c.threshold(w/total) == c.threshold(best/total) {
			return r
		}
		w += float64(halves[r]) / 2
	}
	return rounds
}

// TestBootstrapSealedCompareMatchesWinRate is the sealing contract on
// randomized inputs: for N in [1, 64] on each side, separations that give
// all three outcomes, varied Rounds, Margin and quantile lists (more than
// four quantiles, duplicates, unsorted) and aliased sides, a sealed
// Compare or CompareSorted on one fork returns threshold(WinRate) of its
// twin fork, call after call, and leaves the same next Uint64.
//
// A comparator that scores every round passes those identity checks
// vacuously, so the test also shows that sealing fires. A round stepper (a
// third twin with Rounds = 1) replays the per-round wins, from which
// sealRound finds where scoring may stop. When that is strictly inside the
// loop, the sealed fork's a-side kernel must still hold the resample of
// its last scored round, unlike the full fork's: the test reads both
// kernels' quantiles and fails if they never differ.
func TestBootstrapSealedCompareMatchesWinRate(t *testing.T) {
	rng := xrand.New(2406)
	seps := []float64{0.6, 0.85, 0.95, 1, 1, 1.05, 1.15, 1.6}
	outcomes := map[Outcome]int{}
	var rounds, skipped, stale int
	probe := []float64{0, 0.25, 0.5, 0.75, 1}
	gotQ, wantQ := make([]float64, len(probe)), make([]float64, len(probe))
	for trial := 0; trial < 400; trial++ {
		na, nb := 1+rng.Intn(64), 1+rng.Intn(64)
		if rng.Intn(3) == 0 {
			nb = na
		}
		sigma := rng.Uniform(0.02, 0.3)
		sep := seps[rng.Intn(len(seps))]
		a := sample(rng, na, 1, sigma)
		b := sample(rng, nb, sep, sigma)
		if rng.Intn(6) == 0 {
			b = a // aliased: both sides resolve to one kernel
		}
		proto := &Bootstrap{
			Quantiles: sealQuantileLists[rng.Intn(len(sealQuantileLists))],
			Rounds:    []int{0, 1, 2, 7, 40, 100, 150}[rng.Intn(7)],
			Margin:    sealMargins[rng.Intn(len(sealMargins))],
		}
		k := len(proto.Quantiles)
		if k == 0 {
			k = len(DefaultQuantiles)
		}
		n := proto.Rounds
		if n <= 0 {
			n = DefaultRounds
		}
		step := *proto
		step.Rounds = 1

		seed := rng.Uint64()
		sealed := proto.Fork(seed).(*Bootstrap)
		full := proto.Fork(seed).(*Bootstrap)
		stepper := step.Fork(seed).(*Bootstrap)
		sortedSide := trial%2 == 1
		sa, sb := stats.NewSortedSample(a), stats.NewSortedSample(b)
		if &a[0] == &b[0] {
			sb = sa
		}
		halves := make([]int, n)
		for call := 0; call < 3; call++ {
			var got Outcome
			var err error
			if sortedSide {
				got, err = sealed.CompareSorted(sa, sb)
			} else {
				got, err = sealed.Compare(a, b)
			}
			if err != nil {
				t.Fatal(err)
			}
			r, err := full.WinRate(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := full.threshold(r); got != want {
				t.Fatalf("trial %d call %d (Na=%d Nb=%d sep=%v rounds=%d margin=%v qs=%v sorted=%v): sealed %v, threshold(WinRate=%v) %v",
					trial, call, na, nb, sep, proto.Rounds, proto.Margin, proto.Quantiles, sortedSide, got, r, want)
			}
			peekSealed, peekFull := *sealed.rng, *full.rng
			if peekSealed.Uint64() != peekFull.Uint64() {
				t.Fatalf("trial %d call %d: sealed comparator left the generator elsewhere than the full loop", trial, call)
			}
			outcomes[got]++

			for i := range halves {
				hr, err := stepper.WinRate(a, b)
				if err != nil {
					t.Fatal(err)
				}
				halves[i] = int(math.Round(hr * float64(2*k)))
			}
			at := sealRound(full, halves, k)
			rounds += n
			skipped += n - at
			if at > 0 && at < n {
				ks, kf := sealed.kernelForRaw(a), full.kernelForRaw(a)
				if sortedSide {
					ks = sealed.kernelForSorted(sa)
				}
				plan := stats.PlanQuantiles(probe, na, nil)
				ranks := make([]int32, stats.RanksLen(na))
				ks.Quantiles(plan, ranks, gotQ)
				kf.Quantiles(plan, ranks, wantQ)
				for i := range gotQ {
					if gotQ[i] != wantQ[i] {
						stale++
						break
					}
				}
			}
		}
	}
	for _, o := range []Outcome{Better, Equivalent, Worse} {
		if outcomes[o] == 0 {
			t.Fatalf("no comparison came out %v: outcomes %v", o, outcomes)
		}
	}
	if skipped == 0 || stale == 0 {
		t.Fatalf("sealing never fired: %d of %d rounds sealable, %d sealed kernels left on an earlier resample",
			skipped, rounds, stale)
	}
	t.Logf("outcomes %v; sealing skipped %d of %d rounds (%.0f%%)",
		outcomes, skipped, rounds, 100*float64(skipped)/float64(rounds))
}
