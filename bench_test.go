// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each benchmark
// reproduces its experiment during setup and reports the paper-shaped
// quantities through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. Absolute times differ from the authors' testbed
// (our substrate is a calibrated simulator); the reported metrics carry the
// shapes that must match (who wins, by what factor, where classes merge).
package relperf_test

import (
	"context"
	"runtime"
	"testing"

	"relperf"
	"relperf/internal/compare"
	"relperf/internal/comparetest"
	"relperf/internal/core"
	"relperf/internal/decision"
	"relperf/internal/mat"
	"relperf/internal/predict"
	"relperf/internal/search"
	"relperf/internal/sim"
	"relperf/internal/stats"
	"relperf/internal/workload"
	"relperf/internal/xrand"
)

// E1 — Figure 1b: execution-time distributions of the two-loop code.
// Sub-benchmarks measure the simulation of one run per placement and report
// the mean and spread of the measured distribution.
func BenchmarkFigure1Distributions(b *testing.B) {
	plat := workload.Figure1Platform()
	prog := workload.Figure1(plat.Accel.PeakFlops)
	for _, name := range []string{"DD", "DA", "AD", "AA"} {
		b.Run(name, func(b *testing.B) {
			s, err := sim.NewSimulator(plat, 1)
			if err != nil {
				b.Fatal(err)
			}
			pl, _ := sim.ParsePlacement(name)
			sample, err := s.Sample(prog, pl, 500)
			if err != nil {
				b.Fatal(err)
			}
			sum := stats.Summarize(sample)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Seconds(prog, pl); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sum.Mean*1e3, "mean-ms")
			b.ReportMetric(sum.StdDev*1e3, "std-ms")
		})
	}
}

// E2 — Figure 2: the three-way bubble-sort trace of the 4-algorithm example.
func BenchmarkFigure2SortTrace(b *testing.B) {
	class := []int{2, 1, 2, 0} // DD, AA, DA, AD
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
	res, err := core.Sort(4, cmp, core.SortOptions{RecordTrace: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sort(4, cmp, core.SortOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Comparisons), "comparisons")
	b.ReportMetric(float64(res.K()), "classes")
}

// E3 — Section III relative scores: repeated clustering of the Figure-1
// workload; reports the cluster count and the score mass of the borderline
// algorithm (AA) in the top cluster.
func BenchmarkRelativeScores(b *testing.B) {
	plat := workload.Figure1Platform()
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Platform: plat,
		Program:  workload.Figure1(plat.Accel.PeakFlops),
		N:        500,
		Reps:     100,
		Seed:     2,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		b.Fatal(err)
	}
	// Index 3 is AA in the DD, DA, AD, AA enumeration of 2-task codes.
	var aaTop float64
	for i, n := range res.Names {
		if n == "algAA" && res.Clusters.K > 0 {
			aaTop = res.Clusters.Scores[i][0]
		}
	}
	data := res.Samples.Data()
	cmp := compare.NewBootstrap(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmp.Compare(data[0], data[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Clusters.MeanK, "mean-classes")
	b.ReportMetric(aaTop, "AA-top-score")
}

// E4 — Table I: full pipeline over the 8 placements of the RLS code.
// Reports the final class of each placement (the table's rows) and the mean
// number of classes.
func BenchmarkTableIClustering(b *testing.B) {
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Program: relperf.TableIProgram(10),
		N:       30,
		Reps:    100,
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range res.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			s, err := sim.NewSimulator(relperf.DefaultPlatform(), 1)
			if err != nil {
				b.Fatal(err)
			}
			pl, _ := sim.ParsePlacement(p.Name)
			prog := relperf.TableIProgram(10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Seconds(prog, pl); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Rank), "class")
			b.ReportMetric(p.Score, "score")
			b.ReportMetric(p.MeanSeconds*1e3, "mean-ms")
			b.ReportMetric(res.Clusters.MeanK, "mean-classes")
		})
	}
}

// E5 — Section IV decision sweep: the DDA-over-DDD speedup as the loop size
// n grows (the paper: 0.002 s and 1.05x at n=10, increasing with n).
func BenchmarkDecisionSweep(b *testing.B) {
	plat := relperf.DefaultPlatform()
	for _, n := range []int{5, 10, 20, 50, 100} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			prog := workload.TableI(n, plat.Accel.PeakFlops)
			s, err := sim.NewSimulator(plat, 1)
			if err != nil {
				b.Fatal(err)
			}
			ddd, _ := sim.ParsePlacement("DDD")
			dda, _ := sim.ParsePlacement("DDA")
			tD, err := s.NominalSeconds(prog, ddd)
			if err != nil {
				b.Fatal(err)
			}
			tA, err := s.NominalSeconds(prog, dda)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.NominalSeconds(prog, dda); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tD/tA, "speedup")
			b.ReportMetric((tD-tA)*1e3, "saved-ms")
		})
	}
}

// E6 — Section IV energy switching: a 200-job session under the
// high/low-water policy; reports switch count and fallback share.
func BenchmarkEnergySwitching(b *testing.B) {
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Program: relperf.TableIProgram(10),
		N:       30,
		Reps:    50,
		Seed:    5,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		b.Fatal(err)
	}
	preferred, err := res.ProfileByName("DDD")
	if err != nil {
		b.Fatal(err)
	}
	fallback, err := decision.MostOffloading(res.Profiles, preferred.Rank)
	if err != nil {
		b.Fatal(err)
	}
	sw := &decision.Switcher{
		Preferred: preferred, Fallback: fallback,
		HighWater: 8, LowWater: 2, DissipationWatts: 30,
	}
	sess, err := sw.RunSession(200)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.RunSession(200); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sess.Switches), "switches")
	b.ReportMetric(float64(sess.FallbackJobs)/200, "fallback-share")
	b.ReportMetric(sess.PeakEnergy, "peak-joules")
}

// forkOver adapts cmp into a core Fork over fixed samples: each
// repetition compares on its own fork of cmp.
func forkOver(cmp compare.Comparator, samples [][]float64) func(uint64) core.CompareFunc {
	return func(seed uint64) core.CompareFunc {
		c := cmp.Fork(seed)
		return func(i, j int) (compare.Outcome, error) { return c.Compare(samples[i], samples[j]) }
	}
}

// A1 — comparator ablation: cluster the same Table-I measurements with
// every comparator; the bootstrap's class structure is the reference, the
// mean-threshold baseline under- or over-merges.
func BenchmarkComparatorAblation(b *testing.B) {
	s, err := sim.NewSimulator(relperf.DefaultPlatform(), 7)
	if err != nil {
		b.Fatal(err)
	}
	prog := relperf.TableIProgram(10)
	pls := sim.EnumeratePlacements(3)
	samples := make([][]float64, len(pls))
	for i, pl := range pls {
		samples[i], err = s.Sample(prog, pl, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	comparators := map[string]compare.Comparator{
		"bootstrap":   compare.NewBootstrap(11),
		"ks":          compare.KS{},
		"mannwhitney": compare.MannWhitney{},
		"mean":        compare.MeanThreshold{},
	}
	for name, cmp := range comparators {
		cmp := cmp
		b.Run(name, func(b *testing.B) {
			res, err := core.Cluster(len(pls), core.ClusterOptions{Reps: 50, Seed: 3, Fork: forkOver(cmp, samples)})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cmp.Compare(samples[0], samples[1]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeanK, "mean-classes")
		})
	}
}

// A2 — Rep sensitivity: relative-score stability as the number of
// clustering repetitions grows (the paper repeats Procedure 1 Rep times over
// the same measurements).
func BenchmarkRepSensitivity(b *testing.B) {
	s, err := sim.NewSimulator(relperf.DefaultPlatform(), 9)
	if err != nil {
		b.Fatal(err)
	}
	prog := relperf.TableIProgram(10)
	pls := sim.EnumeratePlacements(3)
	samples := make([][]float64, len(pls))
	for i, pl := range pls {
		samples[i], err = s.Sample(prog, pl, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	cmp := compare.NewBootstrap(13)
	cf := func(i, j int) (compare.Outcome, error) { return cmp.Compare(samples[i], samples[j]) }
	for _, reps := range []int{10, 100, 1000} {
		b.Run("rep="+itoa(reps), func(b *testing.B) {
			res, err := core.Cluster(len(pls), core.ClusterOptions{Reps: reps, Seed: 3, Fork: forkOver(cmp, samples)})
			if err != nil {
				b.Fatal(err)
			}
			// Spread of the DDD score mass across classes: fuzzier with
			// more reps resolving the borderline comparisons.
			var maxScore float64
			for _, sc := range res.Scores[0] { // index 0 = DDD
				if sc > maxScore {
					maxScore = sc
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Sort(len(pls), cf, core.SortOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeanK, "mean-classes")
			b.ReportMetric(maxScore, "DDD-max-score")
		})
	}
}

// itoa avoids strconv for tiny positive ints in sub-benchmark names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// E7 — Section V kernel variants: real host executions of the three
// equivalent RLS algorithms; reports the final class and mean of each.
func BenchmarkKernelVariants(b *testing.B) {
	ss, err := workload.MeasureKernelVariants(workload.KernelStudyConfig{
		Size: 64, Iters: 3, N: 20, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	_, fa, err := relperf.ClusterSamples(ss, nil, relperf.ClusterSamplesOptions{Reps: 50, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range ss.Names() {
		i, name := i, name
		b.Run(name, func(b *testing.B) {
			variants := workload.RLSVariants()
			v := variants[i]
			rngSize := 64
			A := matRand(b, rngSize)
			B := matRand(b, rngSize)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				if _, err := v.Solve(A, B, 0.5); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fa.Rank[i]), "class")
			b.ReportMetric(stats.Mean(ss.Samples[i].Seconds)*1e3, "mean-ms")
		})
	}
}

func matRand(b *testing.B, n int) *mat.Mat {
	b.Helper()
	return mat.Rand(xrand.New(uint64(n)), n, n)
}

// A3 — guided search vs exhaustive: measurements needed to isolate the best
// placement with racing elimination vs measuring all 8 placements fully.
func BenchmarkGuidedSearch(b *testing.B) {
	plat := relperf.DefaultPlatform()
	prog := relperf.TableIProgram(10)
	s, err := sim.NewSimulator(plat, 5)
	if err != nil {
		b.Fatal(err)
	}
	var arms []search.Arm
	for _, pl := range sim.EnumeratePlacements(3) {
		pl := pl
		arms = append(arms, search.Arm{
			Name:    pl.String(),
			Measure: func() (float64, error) { return s.Seconds(prog, pl) },
		})
	}
	res, err := search.Race(context.Background(), arms, compare.NewBootstrap(6), search.Config{RoundSize: 10, MaxRounds: 6, Seed: 6}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Race(context.Background(), arms, compare.NewBootstrap(uint64(i)), search.Config{RoundSize: 10, MaxRounds: 6, Seed: uint64(i)}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TotalMeasurements), "race-measurements")
	b.ReportMetric(float64(8*res.Rounds*10), "exhaustive-measurements")
}

// A4 — predictor quality: pairwise vs triplet training on the Table-I
// clusters, evaluated on a held-out workload.
func BenchmarkPredictorAblation(b *testing.B) {
	plat := relperf.DefaultPlatform()
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Program: relperf.TableIProgram(10), N: 30, Reps: 50, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		b.Fatal(err)
	}
	prog := relperf.TableIProgram(10)
	var train []predict.Example
	for i, pl := range sim.EnumeratePlacements(3) {
		x, err := predict.Features(plat, prog, pl)
		if err != nil {
			b.Fatal(err)
		}
		train = append(train, predict.Example{X: x, Class: res.Final.Rank[i], Name: pl.String()})
	}
	for _, mode := range []struct {
		name    string
		triplet bool
	}{{"pairwise", false}, {"triplet", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var tau float64
			for i := 0; i < b.N; i++ {
				trained, err := predict.Train(train, predict.TrainConfig{Seed: uint64(i), Triplet: mode.triplet})
				if err != nil {
					b.Fatal(err)
				}
				ev, err := predict.Evaluate(trained, train)
				if err != nil {
					b.Fatal(err)
				}
				tau = ev.KendallTau
			}
			b.ReportMetric(tau, "train-tau")
		})
	}
}

// P1 — the parallel study engine: the full Table-I-sized pipeline (P=8
// placements, N=30 measurements, Rep=100 clustering repetitions) at one
// worker vs the full machine. The determinism contract makes the two
// configurations produce bit-identical Results, so the comparison is pure
// wall-clock. The workload body lives in benchStudy (benchjson_test.go),
// shared with the BENCH_engine.json emitter so both measure the same thing.
func BenchmarkEngineSerialVsParallel(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
		matrix  bool
	}{
		{"serial", 1, false},
		{"parallel", 0, false}, // 0 = GOMAXPROCS
		{"parallel-matrix", 0, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchStudy(cfg.workers, cfg.matrix)(b)
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// P2 — comparator hot path: Bootstrap.Compare over two N=30 samples must be
// allocation-free after its scratch warms up (run with -benchmem).
func BenchmarkBootstrapCompareAllocs(b *testing.B) { benchBootstrapCompare(30)(b) }

// benchBootstrapCompare times Bootstrap.Compare on two N-measurement
// log-normal samples 10% apart, after one warm-up call.
func benchBootstrapCompare(n int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := xrand.New(1)
		a := make([]float64, n)
		c := make([]float64, n)
		for i := range a {
			a[i] = rng.LogNormal(0, 0.1)
			c[i] = 1.1 * rng.LogNormal(0, 0.1)
		}
		cmp := compare.NewBootstrap(2)
		if _, err := cmp.Compare(a, c); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmp.Compare(a, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// winRateSamples builds two overlapping log-normal samples of size n for
// the bootstrap kernel benchmarks.
func winRateSamples(n int) (a, b []float64) {
	rng := xrand.New(uint64(n))
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		a[i] = rng.LogNormal(0, 0.2)
		b[i] = 1.05 * rng.LogNormal(0, 0.2)
	}
	return a, b
}

// benchWinRateNew exercises the shipped index-space kernel: sort-once base
// samples, counted index resamples, quantiles off the sorted base. The
// kernel cache is warmed before the timer so the loop shows the
// steady-state (zero-allocation) cost.
func benchWinRateNew(n int) func(b *testing.B) {
	return func(b *testing.B) {
		x, y := winRateSamples(n)
		cmp := compare.NewBootstrap(1)
		if _, err := cmp.WinRate(x, y); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmp.WinRate(x, y); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchWinRateOld exercises the retired value-space kernel (kept as the
// reference implementation in internal/comparetest): every resample
// materialized and insertion-sorted, O(N²) per round.
func benchWinRateOld(n int) func(b *testing.B) {
	return func(b *testing.B) {
		x, y := winRateSamples(n)
		rng := xrand.New(1)
		bufA := make([]float64, n)
		bufB := make([]float64, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comparetest.ReferenceWinRate(rng, x, y, bufA, bufB,
				compare.DefaultQuantiles, compare.DefaultRounds)
		}
	}
}

// P4 — the bootstrap comparator kernel, old vs new, across the sample sizes
// the spec schema admits. The BENCH_engine.json emitter reuses the same
// closures and derives speedup_bootstrap from the N=500 pair.
func BenchmarkWinRate(b *testing.B) {
	for _, n := range []int{50, 500, 5000} {
		b.Run("N="+itoa(n)+"/old", benchWinRateOld(n))
		b.Run("N="+itoa(n)+"/new", benchWinRateNew(n))
	}
}

// P3 — simulator hot path: Seconds must be allocation-free after warm-up
// (run with -benchmem).
func BenchmarkSimulatorSecondsAllocs(b *testing.B) {
	s, err := sim.NewSimulator(relperf.DefaultPlatform(), 1)
	if err != nil {
		b.Fatal(err)
	}
	prog := relperf.TableIProgram(10)
	pl, _ := sim.ParsePlacement("DDA")
	if _, err := s.Seconds(prog, pl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seconds(prog, pl); err != nil {
			b.Fatal(err)
		}
	}
}
