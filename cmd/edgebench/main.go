// Command edgebench regenerates every table and figure of the paper's
// evaluation on the simulated substrate:
//
//	edgebench -exp fig1      Figure 1b: execution-time distributions of DD/DA/AD/AA
//	edgebench -exp fig2      Figure 2: the three-way bubble-sort trace
//	edgebench -exp scores    Section III: relative scores of the 4-algorithm example
//	edgebench -exp table1    Table I: clustering of the 8 placements (RLS code)
//	edgebench -exp decision  Section IV: operating-cost trade-off and n-sweep
//	edgebench -exp energy    Section IV: energy-aware switching session
//	edgebench -exp all       everything above
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"relperf"
	"relperf/internal/compare"
	"relperf/internal/core"
	"relperf/internal/decision"
	"relperf/internal/measure"
	"relperf/internal/predict"
	"relperf/internal/report"
	"relperf/internal/search"
	"relperf/internal/sim"
	"relperf/internal/workload"
)

// workers is the -workers flag: the pool size every study engine uses.
// Results are identical at any value (the engine's determinism contract).
var workers int

// matrix is the -matrix flag: route every study's clustering stage through
// the precomputed pairwise-statistics path (core.ClusterMatrix).
var matrix bool

func main() {
	exp := flag.String("exp", "all", "experiment: fig1|fig2|scores|table1|decision|energy|kernels|predict|race|hybrid|all")
	n := flag.Int("n", 10, "loop iterations per MathTask (the paper's n)")
	nMeas := flag.Int("N", 30, "measurements per algorithm for table1/scores")
	reps := flag.Int("reps", 100, "clustering repetitions (the paper's Rep)")
	seed := flag.Uint64("seed", 1, "master seed")
	flag.IntVar(&workers, "workers", 0, "worker pool size for study engines (0 = GOMAXPROCS)")
	flag.BoolVar(&matrix, "matrix", false, "cluster via precomputed pairwise outcome statistics")
	flag.Parse()

	run := func(name string, f func() error) {
		fmt.Printf("\n================ %s ================\n\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "edgebench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	all := *exp == "all"
	if all || *exp == "fig1" {
		run("Figure 1b — distributions of the two-loop code", func() error { return fig1(*seed) })
	}
	if all || *exp == "fig2" {
		run("Figure 2 — three-way bubble sort trace", fig2)
	}
	if all || *exp == "scores" {
		run("Section III — relative scores (4-algorithm example)", func() error { return scores(*reps, *seed) })
	}
	if all || *exp == "table1" {
		run("Table I — clustering of the 8 placements", func() error { return table1(*n, *nMeas, *reps, *seed) })
	}
	if all || *exp == "decision" {
		run("Section IV — decision model (cost vs speed)", func() error { return decisionExp(*nMeas, *reps, *seed) })
	}
	if all || *exp == "energy" {
		run("Section IV — energy-aware switching", func() error { return energy(*nMeas, *reps, *seed) })
	}
	if all || *exp == "kernels" {
		run("Section V — equivalent RLS kernel variants (real host measurements)", func() error { return kernels(*nMeas, *reps, *seed) })
	}
	if all || *exp == "predict" {
		run("Future work — relative-performance prediction from clusters", func() error { return predictExp(*nMeas, *reps, *seed) })
	}
	if all || *exp == "race" {
		run("Section V — guided search (racing with elimination)", func() error { return race(*seed) })
	}
	if all || *exp == "hybrid" {
		run("Footnote 2 — hybrid mode: real kernels, modeled devices", func() error { return hybrid(*nMeas, *reps, *seed) })
	}
	known := map[string]bool{"fig1": true, "fig2": true, "scores": true, "table1": true,
		"decision": true, "energy": true, "kernels": true, "predict": true, "race": true, "hybrid": true}
	if !all && !known[*exp] {
		fmt.Fprintf(os.Stderr, "edgebench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// fig1 regenerates Figure 1b: N=500 measurements of the four placements of
// the two-loop code, printed as summaries and ASCII histograms.
func fig1(seed uint64) error {
	plat := relperf.Figure1Platform()
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Platform: plat,
		Program:  workload.Figure1(plat.Accel.PeakFlops),
		N:        500,
		Reps:     50,
		Seed:     seed,
		Workers:  workers,
		Matrix:   matrix,
	})
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	if err := report.SummaryTable(os.Stdout, res.Names, res.Samples.Data()); err != nil {
		return err
	}
	fmt.Println()
	if err := report.Histograms(os.Stdout, res.Names, res.Samples.Data(), 24, 48); err != nil {
		return err
	}
	fmt.Println("Clustering of the four placements at N=500:")
	return report.FinalTable(os.Stdout, res.Final, res.Names)
}

// fig2 replays the paper's exact Figure-2 illustration: the scripted
// ground-truth comparator (AD fastest, AA second, DD ~ DA) drives the
// three-way bubble sort from the paper's initial sequence ⟨DD, AA, DA, AD⟩.
func fig2() error {
	names := []string{"DD", "AA", "DA", "AD"}
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
	res, err := core.Sort(4, cmp, core.SortOptions{RecordTrace: true})
	if err != nil {
		return err
	}
	if err := report.SortTrace(os.Stdout, res, names); err != nil {
		return err
	}
	fmt.Printf("\nfinal sequence: ")
	for pos, a := range res.Order {
		fmt.Printf("(%s,%d) ", names[a], res.Ranks[pos])
	}
	fmt.Printf("\nperformance classes: %d\n", res.K())
	return nil
}

// scores reproduces the Section III relative-score example on measured
// data: the Figure-1 workload at N=30, where the AD-vs-AA comparison is
// "just at the threshold of being better" and the clustering becomes
// non-deterministic, yielding fractional relative scores.
func scores(reps int, seed uint64) error {
	plat := relperf.Figure1Platform()
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Platform: plat,
		Program:  workload.Figure1(plat.Accel.PeakFlops),
		N:        30,
		Reps:     reps,
		Seed:     seed,
		Workers:  workers,
		Matrix:   matrix,
	})
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	fmt.Printf("Per-cluster relative scores (Rep=%d):\n", reps)
	if err := report.ClusterTable(os.Stdout, res.Clusters, res.Names); err != nil {
		return err
	}
	fmt.Println("\nFinal clustering (max-score assignment, scores cumulated):")
	return report.FinalTable(os.Stdout, res.Final, res.Names)
}

// table1 regenerates the paper's Table I.
func table1(n, nMeas, reps int, seed uint64) error {
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Program: relperf.TableIProgram(n),
		N:       nMeas,
		Reps:    reps,
		Seed:    seed,
		Workers: workers,
		Matrix:  matrix,
	})
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	return res.WriteReport(os.Stdout)
}

// decisionExp prints the Section-IV decision analysis: the DDA-vs-DDD
// trade-off as the loop size n grows, and the procurement verdicts under
// two cost models.
func decisionExp(nMeas, reps int, seed uint64) error {
	fmt.Println("Speed-up of offloading L3 (algDDA) over all-on-device (algDDD) vs n:")
	tbl := report.NewTable("n", "mean DDD (ms)", "mean DDA (ms)", "saved (ms)", "speedup")
	plat := relperf.DefaultPlatform()
	for _, n := range []int{5, 10, 20, 50, 100} {
		prog := workload.TableI(n, plat.Accel.PeakFlops)
		s, err := sim.NewSimulator(plat, seed)
		if err != nil {
			return err
		}
		ddd, _ := sim.ParsePlacement("DDD")
		dda, _ := sim.ParsePlacement("DDA")
		tD, err := s.NominalSeconds(prog, ddd)
		if err != nil {
			return err
		}
		tA, err := s.NominalSeconds(prog, dda)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", tD*1e3),
			fmt.Sprintf("%.3f", tA*1e3),
			fmt.Sprintf("%.3f", (tD-tA)*1e3),
			fmt.Sprintf("%.3f", tD/tA))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}

	study, err := relperf.NewStudy(relperf.StudyConfig{
		Program: relperf.TableIProgram(10),
		N:       nMeas,
		Reps:    reps,
		Seed:    seed,
		Workers: workers,
		Matrix:  matrix,
	})
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	pa, err := decision.AnalyzeProcurement(res.Profiles)
	if err != nil {
		return err
	}
	fmt.Printf("\nBest device-only algorithm: alg%s (%.3f ms)\n", pa.BestLocal.Name, pa.BestLocal.MeanSeconds*1e3)
	fmt.Printf("Best overall algorithm:     alg%s (%.3f ms)\n", pa.BestOverall.Name, pa.BestOverall.MeanSeconds*1e3)
	fmt.Printf("Speed-up %.3f, %.3f ms saved per run\n", pa.Speedup, pa.SecondsSavedPerRun*1e3)
	latency := decision.CostModel{AccelCostPerHour: 3, TimeValuePerSecond: 50}
	batch := decision.CostModel{AccelCostPerHour: 3, TimeValuePerSecond: 0.001}
	fmt.Printf("Worth procuring the accelerator (latency-critical app): %v\n", pa.WorthProcuring(latency))
	fmt.Printf("Worth procuring the accelerator (batch app):            %v\n", pa.WorthProcuring(batch))
	return nil
}

// energy simulates the Section-IV switching session: run algDDD until the
// device's energy accumulator crosses the threshold, switch to the most
// offloading algorithm of the top clusters (algDAA), switch back on cool.
func energy(nMeas, reps int, seed uint64) error {
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Program: relperf.TableIProgram(10),
		N:       nMeas,
		Reps:    reps,
		Seed:    seed,
		Workers: workers,
		Matrix:  matrix,
	})
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	preferred, err := res.ProfileByName("DDD")
	if err != nil {
		return err
	}
	fallback, err := decision.MostOffloading(res.Profiles, preferred.Rank)
	if err != nil {
		return err
	}
	fmt.Printf("Preferred: alg%s (edge %.2f J/run)   Fallback: alg%s (edge %.2f J/run)\n\n",
		preferred.Name, preferred.EdgeJoules, fallback.Name, fallback.EdgeJoules)
	sw := &decision.Switcher{
		Preferred:        preferred,
		Fallback:         fallback,
		HighWater:        8,
		LowWater:         2,
		DissipationWatts: 30,
	}
	sess, err := sw.RunSession(120)
	if err != nil {
		return err
	}
	fmt.Printf("120 jobs: %d mode switches, %d jobs on alg%s, peak accumulator %.2f J\n",
		sess.Switches, sess.FallbackJobs, fallback.Name, sess.PeakEnergy)
	fmt.Println("\naccumulator trace (every 4th job):")
	for i, st := range sess.Steps {
		if i%4 != 0 {
			continue
		}
		mode := "cool"
		if st.Hot {
			mode = "HOT "
		}
		barLen := int(st.EnergyAfter * 4)
		if barLen > 60 {
			barLen = 60
		}
		fmt.Printf("  job %3d %s alg%s %6.2f J |%s\n", st.Job, mode, st.Alg, st.EnergyAfter, bar(barLen))
	}
	return nil
}

func bar(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

// kernels runs the Section-V kernel-variant experiment: the three
// mathematically equivalent Regularized Least Squares algorithms are
// executed FOR REAL on the host and clustered from their measured wall-time
// distributions.
func kernels(nMeas, reps int, seed uint64) error {
	diff, err := workload.VerifyVariantsAgree(48, 0.5, seed)
	if err != nil {
		return err
	}
	fmt.Printf("mathematical equivalence witness: max |Z_i - Z_chol| = %.2e\n\n", diff)
	ss, err := workload.MeasureKernelVariants(workload.KernelStudyConfig{
		Size: 64, Iters: 3, N: nMeas, Seed: seed,
	})
	if err != nil {
		return err
	}
	if err := report.SummaryTable(os.Stdout, ss.Names(), ss.Data()); err != nil {
		return err
	}
	cr, fa, err := relperf.ClusterSamples(ss, nil, relperf.ClusterSamplesOptions{
		Reps: reps, Seed: seed + 1, Workers: workers, Matrix: matrix,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nClustering (Rep=%d):\n", reps)
	if err := report.ClusterTable(os.Stdout, cr, ss.Names()); err != nil {
		return err
	}
	fmt.Println("\nFinal clustering:")
	return report.FinalTable(os.Stdout, fa, ss.Names())
}

// predictExp trains the relative-performance predictor on the Table-I
// clusters and evaluates it on a held-out workload configuration — the
// paper's "performance models that predict relative scores without having
// to execute all the algorithms".
func predictExp(nMeas, reps int, seed uint64) error {
	plat := relperf.DefaultPlatform()
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Program: relperf.TableIProgram(10),
		N:       nMeas,
		Reps:    reps,
		Seed:    seed,
		Workers: workers,
		Matrix:  matrix,
	})
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	prog := relperf.TableIProgram(10)
	var train []predict.Example
	for i, pl := range sim.EnumeratePlacements(3) {
		x, err := predict.Features(plat, prog, pl)
		if err != nil {
			return err
		}
		train = append(train, predict.Example{X: x, Class: res.Final.Rank[i], Name: pl.String()})
	}
	for _, mode := range []struct {
		name    string
		triplet bool
	}{{"pairwise", false}, {"triplet", true}} {
		trained, err := predict.Train(train, predict.TrainConfig{Seed: seed, Triplet: mode.triplet})
		if err != nil {
			return err
		}
		ev, err := predict.Evaluate(trained, train)
		if err != nil {
			return err
		}
		// Held-out: same code family, different sizes and loop count.
		heldSpecs := []workload.MathTaskSpec{
			{Name: "H1", Size: 60, Iters: 20, Lambda: 0.5},
			{Name: "H2", Size: 120, Iters: 20, Lambda: 0.5},
			{Name: "H3", Size: 250, Iters: 20, Lambda: 0.5},
		}
		heldProg := &sim.Program{Name: "held-out"}
		for i := range heldSpecs {
			heldProg.Tasks = append(heldProg.Tasks, heldSpecs[i].Task(plat.Accel.PeakFlops))
		}
		sHeld, err := sim.NewSimulator(plat, seed+7)
		if err != nil {
			return err
		}
		var held []predict.Example
		type nom struct {
			name string
			sec  float64
		}
		var noms []nom
		for _, pl := range sim.EnumeratePlacements(3) {
			x, err := predict.Features(plat, heldProg, pl)
			if err != nil {
				return err
			}
			v, err := sHeld.NominalSeconds(heldProg, pl)
			if err != nil {
				return err
			}
			noms = append(noms, nom{pl.String(), v})
			held = append(held, predict.Example{X: x, Name: pl.String()})
		}
		// Label held-out examples by nominal ordering (pairs of two).
		sorted := append([]nom(nil), noms...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].sec < sorted[b].sec })
		classOf := map[string]int{}
		for i, nm := range sorted {
			classOf[nm.name] = i/2 + 1
		}
		for i := range held {
			held[i].Class = classOf[held[i].Name]
		}
		evHeld, err := predict.Evaluate(trained, held)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s loss: train tau %.2f, pair-acc %.2f | held-out tau %.2f, pair-acc %.2f, top hit %v\n",
			mode.name, ev.KendallTau, ev.PairAccuracy, evHeld.KendallTau, evHeld.PairAccuracy, evHeld.TopClassHit)
	}
	return nil
}

// race runs the guided-search experiment: racing the 8 placements with
// elimination vs the exhaustive measurement campaign.
func race(seed uint64) error {
	plat := relperf.DefaultPlatform()
	prog := relperf.TableIProgram(10)
	s, err := sim.NewSimulator(plat, seed)
	if err != nil {
		return err
	}
	var arms []search.Arm
	for _, pl := range sim.EnumeratePlacements(3) {
		pl := pl
		arms = append(arms, search.Arm{
			Name:    pl.String(),
			Measure: func() (float64, error) { return s.Seconds(prog, pl) },
		})
	}
	res, err := search.Race(context.Background(), arms, compare.NewBootstrap(seed+1),
		search.Config{RoundSize: 10, MaxRounds: 6, Seed: seed + 1}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("racing 8 placements: %d rounds, %d total measurements (exhaustive: %d)\n",
		res.Rounds, res.TotalMeasurements, 8*res.Rounds*10)
	fmt.Printf("survivors (best first): %v\n\n", res.Survivors)
	tbl := report.NewTable("Algorithm", "Measurements", "Eliminated in round")
	for _, a := range res.Arms {
		el := "-"
		if a.EliminatedInRound > 0 {
			el = fmt.Sprintf("%d", a.EliminatedInRound)
		}
		tbl.AddRow("alg"+a.Name, fmt.Sprintf("%d", a.Measurements), el)
	}
	return tbl.Render(os.Stdout)
}

// hybrid demonstrates the paper's footnote-2 measurement mode end to end:
// the MathTask kernels execute FOR REAL on this machine, measured wall times
// are rescaled to the modeled devices, and modeled transfer/overhead delays
// are added — so the measurement noise is the host's genuine system noise.
// Scaled-down sizes keep the real execution fast.
func hybrid(nMeas, reps int, seed uint64) error {
	specs := []workload.MathTaskSpec{
		{Name: "L1", Size: 20, Iters: 3, Lambda: 0.5},
		{Name: "L2", Size: 30, Iters: 3, Lambda: 0.5},
		{Name: "L3", Size: 60, Iters: 3, Lambda: 0.5},
	}
	h, err := workload.NewHybridExecutor(sim.DefaultPlatform(), specs, seed)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated host rate: %.2f GFLOP/s\n\n", h.HostRate()/1e9)
	ss := &measure.SampleSet{Workload: "hybrid-tableI"}
	for _, pl := range sim.EnumeratePlacements(3) {
		pl := pl
		sample, err := measure.Collect("alg"+pl.String(), func() (float64, error) {
			return h.Run(pl)
		}, measure.Options{N: nMeas, Warmup: 1})
		if err != nil {
			return err
		}
		ss.Samples = append(ss.Samples, sample)
	}
	if err := report.SummaryTable(os.Stdout, ss.Names(), ss.Data()); err != nil {
		return err
	}
	_, fa, err := relperf.ClusterSamples(ss, nil, relperf.ClusterSamplesOptions{
		Reps: reps, Seed: seed + 1, Workers: workers, Matrix: matrix,
	})
	if err != nil {
		return err
	}
	fmt.Println("\nFinal clustering (real kernels, modeled devices):")
	return report.FinalTable(os.Stdout, fa, ss.Names())
}
