// Command relperf is the user-facing CLI of the library:
//
//	relperf measure  -workload tableI -n 10 -N 30 -out runs.csv
//	    measure all placements of a workload and archive the distributions
//	relperf cluster  -in runs.csv -reps 100
//	    re-cluster archived measurements (no re-execution — footnote 5)
//	relperf study    -workload fig1 -N 500
//	    measure + cluster + report in one step
//	relperf placements -tasks 3
//	    enumerate the algorithm set of an L-task code
//	relperf kernels -size 64 -N 30
//	    measure + cluster the equivalent RLS kernel variants (real host times)
//	relperf race -workload tableI
//	    find the best placement with racing elimination
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"relperf"
	"relperf/internal/compare"
	"relperf/internal/measure"
	"relperf/internal/report"
	"relperf/internal/search"
	"relperf/internal/sim"
	"relperf/internal/workload"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: relperf <measure|cluster|study|placements|kernels|race> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "measure":
		err = cmdMeasure(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "study":
		err = cmdStudy(os.Args[2:])
	case "placements":
		err = cmdPlacements(os.Args[2:])
	case "kernels":
		err = cmdKernels(os.Args[2:])
	case "race":
		err = cmdRace(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "relperf: %v\n", err)
		os.Exit(1)
	}
}

// buildStudy assembles a study for one of the named workloads. workers and
// matrix configure the parallel engine; results are worker-count-invariant.
func buildStudy(workloadName string, n, nMeas, reps int, seed uint64, workers int, matrix bool) (*relperf.Study, error) {
	var cfg relperf.StudyConfig
	switch workloadName {
	case "tableI", "table1":
		cfg.Program = relperf.TableIProgram(n)
		cfg.Platform = relperf.DefaultPlatform()
	case "fig1", "figure1":
		cfg.Platform = relperf.Figure1Platform()
		cfg.Program = workload.Figure1(cfg.Platform.Accel.PeakFlops)
	default:
		return nil, fmt.Errorf("unknown workload %q (want tableI or fig1)", workloadName)
	}
	cfg.N = nMeas
	cfg.Reps = reps
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Matrix = matrix
	return relperf.NewStudy(cfg)
}

func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	wl := fs.String("workload", "tableI", "workload: tableI|fig1")
	n := fs.Int("n", 10, "loop iterations per MathTask")
	nMeas := fs.Int("N", 30, "measurements per algorithm")
	seed := fs.Uint64("seed", 1, "seed")
	out := fs.String("out", "", "CSV output path (default stdout)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := buildStudy(*wl, *n, *nMeas, 1, *seed, *workers, false)
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return res.Samples.WriteCSV(w)
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	in := fs.String("in", "", "CSV file of measurements (required)")
	reps := fs.Int("reps", 100, "clustering repetitions")
	seed := fs.Uint64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	matrix := fs.Bool("matrix", false, "precompute pairwise outcome statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("cluster: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	ss, err := measure.ReadCSV(f, *in)
	if err != nil {
		return err
	}
	cr, fa, err := relperf.ClusterSamplesWith(ss, nil, relperf.ClusterSamplesOptions{
		Reps: *reps, Seed: *seed, Workers: *workers, Matrix: *matrix,
	})
	if err != nil {
		return err
	}
	names := ss.Names()
	fmt.Printf("Clustering of %d algorithms from %s (Rep=%d):\n", len(names), *in, *reps)
	if err := report.ClusterTable(os.Stdout, cr, names); err != nil {
		return err
	}
	fmt.Println("\nFinal clustering:")
	return report.FinalTable(os.Stdout, fa, names)
}

func cmdStudy(args []string) error {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	wl := fs.String("workload", "tableI", "workload: tableI|fig1")
	n := fs.Int("n", 10, "loop iterations per MathTask")
	nMeas := fs.Int("N", 30, "measurements per algorithm")
	reps := fs.Int("reps", 100, "clustering repetitions")
	seed := fs.Uint64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	matrix := fs.Bool("matrix", false, "precompute pairwise outcome statistics")
	spec := fs.String("spec", "", "declarative StudySpec JSON file (the schema of POST /v1/suites studies); excludes -workload/-n/-N/-reps/-matrix")
	jsonOut := fs.Bool("json", false, "emit the canonical relperf/result/v1 document instead of the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var study *relperf.Study
	var err error
	if *spec != "" {
		// Declarative mode: the file carries program, platform and engine
		// fields; only seed and workers come from flags (they are runtime
		// concerns, not part of the wire schema). Study-shaping flags would
		// be silently shadowed by the spec, so explicit ones are errors.
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload", "n", "N", "reps", "matrix":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("study: %s cannot be combined with -spec (the spec file carries those settings)",
				strings.Join(conflicts, ", "))
		}
		study, err = buildSpecStudy(*spec, *seed, *workers)
	} else {
		study, err = buildStudy(*wl, *n, *nMeas, *reps, *seed, *workers, *matrix)
	}
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}
	if *jsonOut {
		return res.WriteJSON(os.Stdout)
	}
	return res.WriteReport(os.Stdout)
}

// buildSpecStudy loads a declarative spec file and resolves it into a
// runnable study — the same schema, validation and resolution path as the
// relperfd daemon, so a spec validated here is a spec the fleet accepts.
func buildSpecStudy(path string, seed uint64, workers int) (*relperf.Study, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sp, err := relperf.DecodeStudySpec(f)
	if err != nil {
		return nil, err
	}
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	cfg.Workers = workers
	return relperf.NewStudy(cfg)
}

func cmdPlacements(args []string) error {
	fs := flag.NewFlagSet("placements", flag.ExitOnError)
	tasks := fs.Int("tasks", 3, "number of dependent tasks L")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tasks <= 0 || *tasks > 20 {
		return fmt.Errorf("placements: -tasks must be in 1..20")
	}
	pls := sim.EnumeratePlacements(*tasks)
	fmt.Printf("%d equivalent algorithms for an %d-task code:\n", len(pls), *tasks)
	for _, pl := range pls {
		fmt.Printf("  alg%s\n", pl)
	}
	return nil
}

func cmdKernels(args []string) error {
	fs := flag.NewFlagSet("kernels", flag.ExitOnError)
	size := fs.Int("size", 64, "square matrix dimension")
	nMeas := fs.Int("N", 30, "measurements per variant")
	reps := fs.Int("reps", 100, "clustering repetitions")
	seed := fs.Uint64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	matrix := fs.Bool("matrix", false, "precompute pairwise outcome statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	diff, err := workload.VerifyVariantsAgree(*size, 0.5, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("equivalence witness: max solution difference %.2e\n\n", diff)
	ss, err := workload.MeasureKernelVariants(workload.KernelStudyConfig{
		Size: *size, N: *nMeas, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if err := report.SummaryTable(os.Stdout, ss.Names(), ss.Data()); err != nil {
		return err
	}
	_, fa, err := relperf.ClusterSamplesWith(ss, nil, relperf.ClusterSamplesOptions{
		Reps: *reps, Seed: *seed + 1, Workers: *workers, Matrix: *matrix,
	})
	if err != nil {
		return err
	}
	fmt.Println("\nFinal clustering:")
	return report.FinalTable(os.Stdout, fa, ss.Names())
}

func cmdRace(args []string) error {
	fs := flag.NewFlagSet("race", flag.ExitOnError)
	wl := fs.String("workload", "tableI", "workload: tableI|fig1")
	n := fs.Int("n", 10, "loop iterations per MathTask")
	round := fs.Int("round", 10, "measurements per surviving arm per round")
	rounds := fs.Int("rounds", 6, "maximum rounds")
	seed := fs.Uint64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "comparison workers per round (0 = GOMAXPROCS); results identical at any count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var plat = relperf.DefaultPlatform()
	var prog *sim.Program
	var tasks int
	switch *wl {
	case "tableI", "table1":
		prog = relperf.TableIProgram(*n)
		tasks = 3
	case "fig1", "figure1":
		plat = relperf.Figure1Platform()
		prog = workload.Figure1(plat.Accel.PeakFlops)
		tasks = 2
	default:
		return fmt.Errorf("unknown workload %q", *wl)
	}
	s, err := sim.NewSimulator(plat, *seed)
	if err != nil {
		return err
	}
	var arms []search.Arm
	for _, pl := range sim.EnumeratePlacements(tasks) {
		pl := pl
		arms = append(arms, search.Arm{
			Name:    pl.String(),
			Measure: func() (float64, error) { return s.Seconds(prog, pl) },
		})
	}
	// Race forks the bootstrap comparator per pair and races the
	// elimination comparisons in parallel; the seed keys every stream, so
	// the survivors are identical at any -workers.
	res, err := search.Race(context.Background(), arms, compare.NewBootstrap(*seed+1), search.Config{
		RoundSize: *round, MaxRounds: *rounds, Seed: *seed + 2, Workers: *workers,
	}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%d rounds, %d measurements; survivors: %v\n",
		res.Rounds, res.TotalMeasurements, res.Survivors)
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
