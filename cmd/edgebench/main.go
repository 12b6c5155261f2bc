// Command edgebench regenerates every table and figure of the paper's
// evaluation on the simulated substrate:
//
//	edgebench -exp fig1      Figure 1b: execution-time distributions of DD/DA/AD/AA
//	edgebench -exp fig2      Figure 2: the three-way bubble-sort trace
//	edgebench -exp scores    Section III: relative scores of the 4-algorithm example
//	edgebench -exp table1    Table I: clustering of the 8 placements (RLS code)
//	edgebench -exp decision  Section IV: operating-cost trade-off and n-sweep
//	edgebench -exp energy    Section IV: energy-aware switching session
//	edgebench -exp kernels   Section V: equivalent RLS kernel variants, timed on the host
//	edgebench -exp predict   Future work: predicting relative scores from clusters
//	edgebench -exp race      Section V: guided search by racing with elimination
//	edgebench -exp hybrid    Footnote 2: real kernels on modeled devices
//	edgebench -exp all       everything above
//
// Each experiment is a function that returns a typed result and a printer
// that renders it. Every study is a relperf.StudySpec naming the tableI or
// fig1 workload, resolved by StudySpec.Config as relperfd resolves it.
// Output is byte-identical for a fixed -seed at any -workers, except for
// kernels and hybrid, which time real kernels on the host.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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

// options are the flags the experiments read.
type options struct {
	n, nMeas, reps int
	seed           uint64
	// workers is the pool size of every study engine; results are
	// identical at any value (the engine's determinism contract).
	workers int
	// matrix routes every study's clustering stage through the
	// precomputed pairwise-statistics path (core.ClusterMatrix).
	matrix bool
}

// experiment is one paper result: its -exp name, its banner and a function
// that computes and prints it.
type experiment struct {
	name, title string
	run         func(w io.Writer, o options) error
}

// show pairs an experiment's computation with its printer.
func show[R any](compute func(options) (R, error), print func(io.Writer, R) error) func(io.Writer, options) error {
	return func(w io.Writer, o options) error {
		r, err := compute(o)
		if err != nil {
			return err
		}
		return print(w, r)
	}
}

// experiments lists every experiment in the order -exp all runs them.
var experiments = []experiment{
	{"fig1", "Figure 1b — distributions of the two-loop code", show(fig1, printFig1)},
	{"fig2", "Figure 2 — three-way bubble sort trace", show(fig2, printFig2)},
	{"scores", "Section III — relative scores (4-algorithm example)", show(scores, printScores)},
	{"table1", "Table I — clustering of the 8 placements", show(table1, printTable1)},
	{"decision", "Section IV — decision model (cost vs speed)", show(decisionExp, printDecision)},
	{"energy", "Section IV — energy-aware switching", show(energy, printEnergy)},
	{"kernels", "Section V — equivalent RLS kernel variants (real host measurements)", show(kernels, printKernels)},
	{"predict", "Future work — relative-performance prediction from clusters", show(predictExp, printPredict)},
	{"race", "Section V — guided search (racing with elimination)", show(race, printRace)},
	{"hybrid", "Footnote 2 — hybrid mode: real kernels, modeled devices", show(hybrid, printHybrid)},
}

func main() {
	exp, o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgebench: %v\n", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, exp, o); err != nil {
		fmt.Fprintf(os.Stderr, "edgebench: %v\n", err)
		os.Exit(1)
	}
}

// parseFlags parses the command line into the selected experiment name
// and the options; an unknown experiment is a flag error.
func parseFlags(args []string) (string, options, error) {
	fs := flag.NewFlagSet("edgebench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: fig1|fig2|scores|table1|decision|energy|kernels|predict|race|hybrid|all")
	var o options
	fs.IntVar(&o.n, "n", 10, "loop iterations per MathTask (the paper's n)")
	fs.IntVar(&o.nMeas, "N", 30, "measurements per algorithm for table1/scores")
	fs.IntVar(&o.reps, "reps", 100, "clustering repetitions (the paper's Rep)")
	fs.Uint64Var(&o.seed, "seed", 1, "master seed")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size for study engines (0 = GOMAXPROCS)")
	fs.BoolVar(&o.matrix, "matrix", false, "cluster via precomputed pairwise outcome statistics")
	if err := fs.Parse(args); err != nil {
		return "", o, err
	}
	if *exp != "all" {
		for _, e := range experiments {
			if e.name == *exp {
				return *exp, o, nil
			}
		}
		return "", o, fmt.Errorf("unknown experiment %q", *exp)
	}
	return *exp, o, nil
}

// run writes the banner and output of every experiment exp selects to w.
func run(w io.Writer, exp string, o options) error {
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		fmt.Fprintf(w, "\n================ %s ================\n\n", e.title)
		if err := e.run(w, o); err != nil {
			return fmt.Errorf("%s: %w", e.title, err)
		}
	}
	return nil
}

// study runs sp resolved by StudySpec.Config, with the runtime-only seed
// and worker count set afterwards, and the -matrix clustering path.
func study(sp relperf.StudySpec, o options) (*relperf.Result, error) {
	sp.Matrix = o.matrix
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	s, err := relperf.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// tableI resolves the tableI workload at loop count n (0 = the spec's
// default) for the experiments that drive the simulator directly.
func tableI(n int) (*sim.Platform, *sim.Program, error) {
	cfg, err := (&relperf.StudySpec{Workload: "tableI", LoopN: n}).Config()
	return cfg.Platform, cfg.Program, err
}

// fig1 measures the four placements of the two-loop code N=500 times each
// and clusters them: the data of Figure 1b.
func fig1(o options) (*relperf.Result, error) {
	return study(relperf.StudySpec{Workload: "fig1", Measurements: 500, Reps: 50}, o)
}

func printFig1(w io.Writer, res *relperf.Result) error {
	if err := report.SummaryTable(w, res.Names, res.Samples.Data()); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Histograms(w, res.Names, res.Samples.Data(), 24, 48); err != nil {
		return err
	}
	fmt.Fprintln(w, "Clustering of the four placements at N=500:")
	return report.FinalTable(w, res.Final, res.Names)
}

// fig2Names is the paper's Figure-2 initial sequence ⟨DD, AA, DA, AD⟩.
var fig2Names = []string{"DD", "AA", "DA", "AD"}

// fig2 replays the paper's exact Figure-2 illustration: the scripted
// ground-truth comparator (AD fastest, AA second, DD ~ DA) drives the
// three-way bubble sort from fig2Names.
func fig2(options) (*core.SortResult, error) {
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
	return core.Sort(len(fig2Names), cmp, core.SortOptions{RecordTrace: true})
}

func printFig2(w io.Writer, res *core.SortResult) error {
	if err := report.SortTrace(w, res, fig2Names); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfinal sequence: ")
	for pos, a := range res.Order {
		fmt.Fprintf(w, "(%s,%d) ", fig2Names[a], res.Ranks[pos])
	}
	fmt.Fprintf(w, "\nperformance classes: %d\n", res.K())
	return nil
}

// scores reproduces the Section III relative-score example on measured
// data: the Figure-1 workload at N=30, where the AD-vs-AA comparison is
// "just at the threshold of being better" and the clustering becomes
// non-deterministic, yielding fractional relative scores.
func scores(o options) (*relperf.Result, error) {
	return study(relperf.StudySpec{Workload: "fig1", Measurements: 30, Reps: o.reps}, o)
}

func printScores(w io.Writer, res *relperf.Result) error {
	fmt.Fprintf(w, "Per-cluster relative scores (Rep=%d):\n", res.Clusters.Reps)
	if err := report.ClusterTable(w, res.Clusters, res.Names); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nFinal clustering (max-score assignment, scores cumulated):")
	return report.FinalTable(w, res.Final, res.Names)
}

// table1 regenerates the paper's Table I.
func table1(o options) (*relperf.Result, error) {
	return study(relperf.StudySpec{Workload: "tableI", LoopN: o.n, Measurements: o.nMeas, Reps: o.reps}, o)
}

func printTable1(w io.Writer, res *relperf.Result) error { return res.WriteReport(w) }

// decisionResult is the Section-IV decision analysis.
type decisionResult struct {
	// Sweep holds the nominal algDDD and algDDA times as n grows.
	Sweep []nominalPoint
	// Procurement compares the best device-only and best overall
	// algorithms of the Table-I study.
	Procurement *decision.ProcurementAnalysis
	// WorthLatency and WorthBatch are the procurement verdicts for a
	// latency-critical and a batch application.
	WorthLatency, WorthBatch bool
}

// nominalPoint is one n of the offloading sweep, in seconds.
type nominalPoint struct {
	N        int
	DDD, DDA float64
}

// decisionExp computes the DDA-vs-DDD trade-off as the loop size n grows
// and the procurement verdicts under two cost models.
func decisionExp(o options) (*decisionResult, error) {
	ddd, _ := sim.ParsePlacement("DDD")
	dda, _ := sim.ParsePlacement("DDA")
	out := &decisionResult{}
	for _, n := range []int{5, 10, 20, 50, 100} {
		plat, prog, err := tableI(n)
		if err != nil {
			return nil, err
		}
		s, err := sim.NewSimulator(plat, o.seed)
		if err != nil {
			return nil, err
		}
		p := nominalPoint{N: n}
		if p.DDD, err = s.NominalSeconds(prog, ddd); err != nil {
			return nil, err
		}
		if p.DDA, err = s.NominalSeconds(prog, dda); err != nil {
			return nil, err
		}
		out.Sweep = append(out.Sweep, p)
	}
	res, err := study(relperf.StudySpec{Workload: "tableI", Measurements: o.nMeas, Reps: o.reps}, o)
	if err != nil {
		return nil, err
	}
	if out.Procurement, err = decision.AnalyzeProcurement(res.Profiles); err != nil {
		return nil, err
	}
	out.WorthLatency = out.Procurement.WorthProcuring(decision.CostModel{AccelCostPerHour: 3, TimeValuePerSecond: 50})
	out.WorthBatch = out.Procurement.WorthProcuring(decision.CostModel{AccelCostPerHour: 3, TimeValuePerSecond: 0.001})
	return out, nil
}

func printDecision(w io.Writer, r *decisionResult) error {
	fmt.Fprintln(w, "Speed-up of offloading L3 (algDDA) over all-on-device (algDDD) vs n:")
	tbl := report.NewTable("n", "mean DDD (ms)", "mean DDA (ms)", "saved (ms)", "speedup")
	for _, p := range r.Sweep {
		tbl.AddRow(fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.3f", p.DDD*1e3),
			fmt.Sprintf("%.3f", p.DDA*1e3),
			fmt.Sprintf("%.3f", (p.DDD-p.DDA)*1e3),
			fmt.Sprintf("%.3f", p.DDD/p.DDA))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	pa := r.Procurement
	fmt.Fprintf(w, "\nBest device-only algorithm: alg%s (%.3f ms)\n", pa.BestLocal.Name, pa.BestLocal.MeanSeconds*1e3)
	fmt.Fprintf(w, "Best overall algorithm:     alg%s (%.3f ms)\n", pa.BestOverall.Name, pa.BestOverall.MeanSeconds*1e3)
	fmt.Fprintf(w, "Speed-up %.3f, %.3f ms saved per run\n", pa.Speedup, pa.SecondsSavedPerRun*1e3)
	fmt.Fprintf(w, "Worth procuring the accelerator (latency-critical app): %v\n", r.WorthLatency)
	fmt.Fprintf(w, "Worth procuring the accelerator (batch app):            %v\n", r.WorthBatch)
	return nil
}

// energyResult is a Section-IV switching session.
type energyResult struct {
	// Switcher is the policy the session ran: algDDD preferred, the most
	// offloading algorithm of its class or better as the fallback.
	Switcher decision.Switcher
	Session  *decision.SessionResult
}

// energy simulates the Section-IV switching session: run algDDD until the
// device's energy accumulator crosses the threshold, switch to the most
// offloading algorithm of the top clusters (algDAA), switch back on cool.
func energy(o options) (*energyResult, error) {
	res, err := study(relperf.StudySpec{Workload: "tableI", Measurements: o.nMeas, Reps: o.reps}, o)
	if err != nil {
		return nil, err
	}
	preferred, err := res.ProfileByName("DDD")
	if err != nil {
		return nil, err
	}
	fallback, err := decision.MostOffloading(res.Profiles, preferred.Rank)
	if err != nil {
		return nil, err
	}
	r := &energyResult{Switcher: decision.Switcher{
		Preferred:        preferred,
		Fallback:         fallback,
		HighWater:        8,
		LowWater:         2,
		DissipationWatts: 30,
	}}
	if r.Session, err = r.Switcher.RunSession(120); err != nil {
		return nil, err
	}
	return r, nil
}

func printEnergy(w io.Writer, r *energyResult) error {
	preferred, fallback, sess := r.Switcher.Preferred, r.Switcher.Fallback, r.Session
	fmt.Fprintf(w, "Preferred: alg%s (edge %.2f J/run)   Fallback: alg%s (edge %.2f J/run)\n\n",
		preferred.Name, preferred.EdgeJoules, fallback.Name, fallback.EdgeJoules)
	fmt.Fprintf(w, "%d jobs: %d mode switches, %d jobs on alg%s, peak accumulator %.2f J\n",
		len(sess.Steps), sess.Switches, sess.FallbackJobs, fallback.Name, sess.PeakEnergy)
	fmt.Fprintln(w, "\naccumulator trace (every 4th job):")
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
		fmt.Fprintf(w, "  job %3d %s alg%s %6.2f J |%s\n", st.Job, mode, st.Alg, st.EnergyAfter, bar(barLen))
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

// kernelsResult is the Section-V kernel-variant clustering.
type kernelsResult struct {
	// Witness is max |Z_i - Z_chol| over the variants: their solutions
	// agree, so they are equivalent algorithms.
	Witness  float64
	Samples  *measure.SampleSet
	Clusters *core.ClusterResult
	Final    *core.FinalAssignment
}

// kernels runs the Section-V kernel-variant experiment: the three
// mathematically equivalent Regularized Least Squares algorithms are
// executed FOR REAL on the host and clustered from their measured wall-time
// distributions.
func kernels(o options) (*kernelsResult, error) {
	diff, err := workload.VerifyVariantsAgree(48, 0.5, o.seed)
	if err != nil {
		return nil, err
	}
	ss, err := workload.MeasureKernelVariants(workload.KernelStudyConfig{
		Size: 64, Iters: 3, N: o.nMeas, Seed: o.seed,
	})
	if err != nil {
		return nil, err
	}
	cr, fa, err := relperf.ClusterSamples(ss, nil, relperf.ClusterSamplesOptions{
		Reps: o.reps, Seed: o.seed + 1, Workers: o.workers, Matrix: o.matrix,
	})
	if err != nil {
		return nil, err
	}
	return &kernelsResult{Witness: diff, Samples: ss, Clusters: cr, Final: fa}, nil
}

func printKernels(w io.Writer, r *kernelsResult) error {
	fmt.Fprintf(w, "mathematical equivalence witness: max |Z_i - Z_chol| = %.2e\n\n", r.Witness)
	if err := report.SummaryTable(w, r.Samples.Names(), r.Samples.Data()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nClustering (Rep=%d):\n", r.Clusters.Reps)
	if err := report.ClusterTable(w, r.Clusters, r.Samples.Names()); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nFinal clustering:")
	return report.FinalTable(w, r.Final, r.Samples.Names())
}

// predictRow is one predictor loss, evaluated on its Table-I training set
// and on a held-out workload configuration.
type predictRow struct {
	Mode        string
	Train, Held *predict.Evaluation
}

// predictExp trains the relative-performance predictor on the Table-I
// clusters and evaluates it on a held-out workload configuration — the
// paper's "performance models that predict relative scores without having
// to execute all the algorithms".
func predictExp(o options) ([]predictRow, error) {
	res, err := study(relperf.StudySpec{Workload: "tableI", Measurements: o.nMeas, Reps: o.reps}, o)
	if err != nil {
		return nil, err
	}
	plat, prog, err := tableI(0)
	if err != nil {
		return nil, err
	}
	var train []predict.Example
	for i, pl := range sim.EnumeratePlacements(len(prog.Tasks)) {
		x, err := predict.Features(plat, prog, pl)
		if err != nil {
			return nil, err
		}
		train = append(train, predict.Example{X: x, Class: res.Final.Rank[i], Name: pl.String()})
	}
	held, err := heldOut(plat, o.seed)
	if err != nil {
		return nil, err
	}
	var rows []predictRow
	for _, mode := range []struct {
		name    string
		triplet bool
	}{{"pairwise", false}, {"triplet", true}} {
		trained, err := predict.Train(train, predict.TrainConfig{Seed: o.seed, Triplet: mode.triplet})
		if err != nil {
			return nil, err
		}
		ev, err := predict.Evaluate(trained, train)
		if err != nil {
			return nil, err
		}
		evHeld, err := predict.Evaluate(trained, held)
		if err != nil {
			return nil, err
		}
		rows = append(rows, predictRow{Mode: mode.name, Train: ev, Held: evHeld})
	}
	return rows, nil
}

// heldOut builds the predictor's held-out examples: the same code family
// at other sizes and loop counts, labeled by nominal ordering in classes
// of two.
func heldOut(plat *sim.Platform, seed uint64) ([]predict.Example, error) {
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
		return nil, err
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
			return nil, err
		}
		v, err := sHeld.NominalSeconds(heldProg, pl)
		if err != nil {
			return nil, err
		}
		noms = append(noms, nom{pl.String(), v})
		held = append(held, predict.Example{X: x, Name: pl.String()})
	}
	sorted := append([]nom(nil), noms...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].sec < sorted[b].sec })
	classOf := map[string]int{}
	for i, nm := range sorted {
		classOf[nm.name] = i/2 + 1
	}
	for i := range held {
		held[i].Class = classOf[held[i].Name]
	}
	return held, nil
}

func printPredict(w io.Writer, rows []predictRow) error {
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s loss: train tau %.2f, pair-acc %.2f | held-out tau %.2f, pair-acc %.2f, top hit %v\n",
			r.Mode, r.Train.KendallTau, r.Train.PairAccuracy, r.Held.KendallTau, r.Held.PairAccuracy, r.Held.TopClassHit)
	}
	return nil
}

// raceRoundSize is the measurements each surviving arm gets per round.
const raceRoundSize = 10

// race runs the guided-search experiment: racing the 8 Table-I placements
// with elimination instead of measuring all of them exhaustively.
func race(o options) (*search.Result, error) {
	plat, prog, err := tableI(0)
	if err != nil {
		return nil, err
	}
	s, err := sim.NewSimulator(plat, o.seed)
	if err != nil {
		return nil, err
	}
	var arms []search.Arm
	for _, pl := range sim.EnumeratePlacements(len(prog.Tasks)) {
		pl := pl
		arms = append(arms, search.Arm{
			Name:    pl.String(),
			Measure: func() (float64, error) { return s.Seconds(prog, pl) },
		})
	}
	return search.Race(context.Background(), arms, compare.NewBootstrap(o.seed+1),
		search.Config{RoundSize: raceRoundSize, MaxRounds: 6, Seed: o.seed + 1}, nil)
}

func printRace(w io.Writer, res *search.Result) error {
	fmt.Fprintf(w, "racing %d placements: %d rounds, %d total measurements (exhaustive: %d)\n",
		len(res.Arms), res.Rounds, res.TotalMeasurements, len(res.Arms)*res.Rounds*raceRoundSize)
	fmt.Fprintf(w, "survivors (best first): %v\n\n", res.Survivors)
	tbl := report.NewTable("Algorithm", "Measurements", "Eliminated in round")
	for _, a := range res.Arms {
		el := "-"
		if a.EliminatedInRound > 0 {
			el = fmt.Sprintf("%d", a.EliminatedInRound)
		}
		tbl.AddRow("alg"+a.Name, fmt.Sprintf("%d", a.Measurements), el)
	}
	return tbl.Render(w)
}

// hybridResult is the footnote-2 clustering of real kernels on modeled
// devices.
type hybridResult struct {
	// HostRate is the calibrated host speed in FLOP/s.
	HostRate float64
	Samples  *measure.SampleSet
	Final    *core.FinalAssignment
}

// hybrid demonstrates the paper's footnote-2 measurement mode end to end:
// the MathTask kernels execute FOR REAL on this machine, measured wall times
// are rescaled to the modeled devices, and modeled transfer/overhead delays
// are added — so the measurement noise is the host's genuine system noise.
// Scaled-down sizes keep the real execution fast.
func hybrid(o options) (*hybridResult, error) {
	specs := []workload.MathTaskSpec{
		{Name: "L1", Size: 20, Iters: 3, Lambda: 0.5},
		{Name: "L2", Size: 30, Iters: 3, Lambda: 0.5},
		{Name: "L3", Size: 60, Iters: 3, Lambda: 0.5},
	}
	h, err := workload.NewHybridExecutor(sim.DefaultPlatform(), specs, o.seed)
	if err != nil {
		return nil, err
	}
	ss := &measure.SampleSet{Workload: "hybrid-tableI"}
	for _, pl := range sim.EnumeratePlacements(len(specs)) {
		pl := pl
		sample, err := measure.Collect("alg"+pl.String(), func() (float64, error) {
			return h.Run(pl)
		}, measure.Options{N: o.nMeas, Warmup: 1})
		if err != nil {
			return nil, err
		}
		ss.Samples = append(ss.Samples, sample)
	}
	_, fa, err := relperf.ClusterSamples(ss, nil, relperf.ClusterSamplesOptions{
		Reps: o.reps, Seed: o.seed + 1, Workers: o.workers, Matrix: o.matrix,
	})
	if err != nil {
		return nil, err
	}
	return &hybridResult{HostRate: h.HostRate(), Samples: ss, Final: fa}, nil
}

func printHybrid(w io.Writer, r *hybridResult) error {
	fmt.Fprintf(w, "calibrated host rate: %.2f GFLOP/s\n\n", r.HostRate/1e9)
	if err := report.SummaryTable(w, r.Samples.Names(), r.Samples.Data()); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nFinal clustering (real kernels, modeled devices):")
	return report.FinalTable(w, r.Final, r.Samples.Names())
}
