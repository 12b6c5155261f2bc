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
//
// The paper's tables and figures are reproduced by cmd/edgebench.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"relperf"
	"relperf/internal/measure"
	"relperf/internal/report"
	"relperf/internal/sim"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: relperf <measure|cluster|study|placements> [flags]")
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
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "relperf: %v\n", err)
		os.Exit(1)
	}
}

// workloadSpec is the StudySpec a subcommand's -workload flag names. -n
// becomes LoopN only when it was given, so the tableI default comes from
// the spec and fig1, whose loops are fixed, rejects it loudly.
func workloadSpec(fs *flag.FlagSet, wl string, n int) *relperf.StudySpec {
	sp := &relperf.StudySpec{Workload: wl}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			sp.LoopN = n
		}
	})
	return sp
}

// specStudy resolves a spec into a runnable study with the runtime-only
// seed and worker count, the resolution path the relperfd daemon uses.
func specStudy(sp *relperf.StudySpec, seed uint64, workers int) (*relperf.Study, error) {
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	cfg.Workers = workers
	return relperf.NewStudy(cfg)
}

func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	wl := fs.String("workload", "tableI", "workload: tableI|fig1")
	n := fs.Int("n", 0, "loop iterations per MathTask, tableI only (default 10)")
	nMeas := fs.Int("N", 30, "measurements per algorithm")
	seed := fs.Uint64("seed", 1, "seed")
	out := fs.String("out", "", "CSV output path (default stdout)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp := workloadSpec(fs, *wl, *n)
	sp.Measurements = *nMeas
	sp.Reps = 1
	study, err := specStudy(sp, *seed, *workers)
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
	cr, fa, err := relperf.ClusterSamples(ss, nil, relperf.ClusterSamplesOptions{
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
	n := fs.Int("n", 0, "loop iterations per MathTask, tableI only (default 10)")
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
		sp := workloadSpec(fs, *wl, *n)
		sp.Measurements = *nMeas
		sp.Reps = *reps
		sp.Matrix = *matrix
		study, err = specStudy(sp, *seed, *workers)
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
	return specStudy(sp, seed, workers)
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
