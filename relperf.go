// Package relperf is the public entry point of the library: it wires the
// measurement substrate, the three-way bootstrap comparison and the
// rank-clustering procedure into an end-to-end relative-performance study,
// reproducing the methodology of Sankaran & Bientinesi, "Performance
// Comparison for Scientific Computations on the Edge via Relative
// Performance" (2021).
//
// A Study measures every placement of a program on a modeled edge platform,
// compares the resulting execution-time distributions pairwise (better /
// worse / equivalent), clusters the algorithms into performance classes with
// relative scores, and derives the per-algorithm profiles the decision
// models consume:
//
//	study, _ := relperf.NewStudy(relperf.StudyConfig{
//		Platform: relperf.DefaultPlatform(),
//		Program:  relperf.TableIProgram(10),
//		N:        30,
//	})
//	result, _ := study.Run()
//	result.WriteReport(os.Stdout)
//
// # Parallel execution and the determinism contract
//
// Run fans the measurement of the 2^L placements out over a worker pool
// (StudyConfig.Workers, default GOMAXPROCS) and runs the clustering
// repetitions concurrently as well, each on its own fork of the comparator.
// The engine guarantees that equal seeds produce bit-identical Results
// regardless of the worker count: every unit of work
// (a placement's measurement campaign, a clustering repetition, a pair's
// bootstrap pre-pass) draws from its own RNG stream keyed by the unit's
// index via xrand.Mix, and results are collected into index-ordered slots —
// nothing ever depends on goroutine scheduling.
package relperf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"relperf/internal/compare"
	"relperf/internal/core"
	"relperf/internal/decision"
	"relperf/internal/measure"
	"relperf/internal/pool"
	"relperf/internal/report"
	"relperf/internal/sim"
	"relperf/internal/stats"
	"relperf/internal/workload"
	"relperf/internal/xrand"
)

// Re-exported constructors so example applications can stay on the public
// surface.

// DefaultPlatform returns the paper's testbed model (Xeon core + P100 +
// PCIe).
func DefaultPlatform() *sim.Platform { return sim.DefaultPlatform() }

// Figure1Platform returns the testbed model used by the Figure-1 workload.
func Figure1Platform() *sim.Platform { return workload.Figure1Platform() }

// TableIProgram returns the paper's three-MathTask scientific code
// (Procedure 5) with n loop iterations per task.
func TableIProgram(n int) *sim.Program {
	return workload.TableI(n, sim.DefaultPlatform().Accel.PeakFlops)
}

// StudyConfig configures an end-to-end study.
type StudyConfig struct {
	// Platform is the modeled hardware; DefaultPlatform() if nil.
	Platform *sim.Platform
	// Program is the scientific code whose placements form the algorithm
	// set A. Required.
	Program *sim.Program
	// Placements restricts the algorithm set; nil means all 2^L.
	Placements []sim.Placement
	// N is the number of measurements per algorithm (default 30, the
	// paper's Table-I setting).
	N int
	// Warmup measurements are discarded first (default 0).
	Warmup int
	// Reps is the number of clustering repetitions (default 100).
	Reps int
	// Seed drives every stochastic component; studies with equal seeds
	// and configs produce identical results, whatever the worker count.
	Seed uint64
	// Comparator overrides the default bootstrap comparator. Only its
	// decision parameters carry over: every clustering repetition (and
	// every matrix pre-pass pair) uses a fork whose randomness is keyed off
	// Seed, so any RNG built into the supplied comparator itself is never
	// drawn.
	Comparator compare.Comparator
	// Workers bounds the worker pool for measurement and clustering;
	// 0 means GOMAXPROCS. The results do not depend on this value.
	Workers int
	// Matrix enables the precomputed pairwise-statistics clustering path
	// (core.ClusterMatrix): each pair's bootstrap outcome distribution is
	// estimated once in parallel and the repetitions sample from the
	// cache.
	Matrix bool
	// MatrixTrials is the number of comparator trials per pair on the
	// Matrix path (default 32).
	MatrixTrials int
	// SketchK switches the study into sketch mode: instead of materializing
	// every measurement, each placement's campaign streams into a
	// fixed-capacity quantile sketch of k = SketchK items
	// (stats.Sketch), and the clustering stage compares sketch quantiles
	// (compare.SketchComparator). 0 (the default) keeps the exact path and
	// its bit-identity contract untouched. Sketch mode has its own
	// contract: equal seeds produce bit-identical Results at any worker
	// count, and every reported quantile has rank error at most
	// stats.SketchEpsilon(SketchK). Valid values are 0 or
	// [MinSketchK, MaxStudySketchK]; sketch mode is incompatible with
	// Matrix and with comparators other than compare.SketchComparator.
	SketchK int
}

// Bounds on StudyConfig.SketchK (and the spec's "sketch": {"k": ...}).
// Below MinSketchK the rank-error bound SketchEpsilon(k) = 2/sqrt(k) is
// useless (> 0.5); above MaxStudySketchK the "fixed-size summary" premise
// stops holding for the campaign sizes this engine runs.
const (
	MinSketchK      = 16
	MaxStudySketchK = 1 << 20
)

// Study is a configured, not-yet-run experiment.
type Study struct {
	cfg        StudyConfig
	placements []sim.Placement
}

// NewStudy validates the configuration.
func NewStudy(cfg StudyConfig) (*Study, error) {
	if cfg.Program == nil {
		return nil, errors.New("relperf: StudyConfig.Program is required")
	}
	if cfg.Platform == nil {
		cfg.Platform = sim.DefaultPlatform()
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Program.Validate(); err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		cfg.N = 30
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 100
	}
	if cfg.SketchK != 0 {
		if cfg.SketchK < MinSketchK || cfg.SketchK > MaxStudySketchK {
			return nil, fmt.Errorf("relperf: StudyConfig.SketchK must be 0 or in [%d, %d], got %d",
				MinSketchK, MaxStudySketchK, cfg.SketchK)
		}
		if cfg.Matrix {
			return nil, errors.New("relperf: sketch mode is incompatible with Matrix clustering")
		}
		if cfg.Comparator != nil {
			if _, ok := cfg.Comparator.(compare.SketchComparator); !ok {
				return nil, fmt.Errorf("relperf: sketch mode requires a compare.SketchComparator, got %T",
					cfg.Comparator)
			}
		}
	}
	placements := cfg.Placements
	if placements == nil {
		placements = sim.EnumeratePlacements(len(cfg.Program.Tasks))
	}
	for _, pl := range placements {
		if len(pl) != len(cfg.Program.Tasks) {
			return nil, fmt.Errorf("relperf: placement %s does not fit program with %d tasks",
				pl, len(cfg.Program.Tasks))
		}
	}
	return &Study{cfg: cfg, placements: placements}, nil
}

// Result is the outcome of a study: the measured distributions, the
// clustering with relative scores, the final assignment and the decision
// profiles.
type Result struct {
	// Names are the placement names, index-aligned with everything else.
	Names []string
	// Samples holds the measured execution-time distributions (exact mode;
	// nil in sketch mode).
	Samples *measure.SampleSet
	// Sketches holds the summarized distributions (sketch mode; nil in
	// exact mode).
	Sketches *measure.SketchSet
	// Clusters is the repeated-clustering outcome (Procedure 4).
	Clusters *core.ClusterResult
	// Final is the max-score assignment with cumulated scores.
	Final *core.FinalAssignment
	// Profiles feed the decision models of §IV.
	Profiles []decision.AlgorithmProfile

	// Stages are the wall-clock timings of the run's pipeline stages
	// (measure → cluster → finalize), recorded once per stage by RunOn —
	// never inside the per-resample loops, so the 0 allocs/op hot paths
	// are untouched. They are runtime telemetry, not results: the
	// canonical wire format (report.ResultJSON) excludes them, so equal
	// seeds still produce bit-identical result bytes at any worker count.
	Stages []StageTiming

	// profileIdx maps profile names to indices, built on first use; Results
	// served under traffic answer many ProfileByName queries per study.
	profileOnce sync.Once
	profileIdx  map[string]int
}

// StageTiming is one pipeline stage's wall-clock interval. Stage names
// are stable ("measure", "cluster", "finalize") — the fleet scheduler
// exports them as engine_stage_seconds{stage=...} histogram series.
type StageTiming struct {
	Name    string
	Start   time.Time
	Seconds float64
}

// Stage names recorded by RunOn.
const (
	StageMeasure  = "measure"
	StageCluster  = "cluster"
	StageFinalize = "finalize"
)

// aggregate accumulates the per-placement energy/utilization profile over
// the measured (post-warmup) runs only.
type aggregate struct {
	edgeFlops, accelFlops int64
	edgeJoules            float64
	accelJoules           float64
	accelBusy             float64
}

// placementSeed keys placement i's simulator stream off the study seed; the
// derivation depends only on (seed, i), never on which worker executes the
// placement or in what order.
func placementSeed(seed uint64, i int) uint64 {
	return xrand.Mix(seed, uint64(i))
}

// studyClusterSeed keys the clustering stage. The large domain constant
// keeps the derived value off every placement key (small ints), and —
// unlike the arithmetic seed+1 — off the streams of studies run with
// adjacent seeds, so seed sweeps never reuse a generator across
// replications.
func studyClusterSeed(seed uint64) uint64 {
	return xrand.Mix(seed, 0x636c7573746572) // "cluster"
}

// studySketchSeed keys the sketch ingest streams off the study seed, in a
// domain of its own so a placement's sketch hashes never collide with its
// simulator stream.
func studySketchSeed(seed uint64) uint64 {
	return xrand.Mix(seed, 0x736b65746368) // "sketch"
}

// measurePlacement runs placement i's full measurement campaign on a
// dedicated simulator: Warmup discarded runs first, then N measured runs.
// Only the measured runs contribute to the energy/busy aggregate, so
// profiles are free of warmup contamination.
func (s *Study) measurePlacement(i int) (measure.Sample, aggregate, error) {
	pl := s.placements[i]
	var agg aggregate
	simulator, err := sim.NewSimulator(s.cfg.Platform, placementSeed(s.cfg.Seed, i))
	if err != nil {
		return measure.Sample{}, agg, err
	}
	var scratch sim.RunResult
	for w := 0; w < s.cfg.Warmup; w++ {
		if err := simulator.RunInto(&scratch, s.cfg.Program, pl, false); err != nil {
			return measure.Sample{}, agg, fmt.Errorf("relperf: warmup %d of alg%s: %w", w, pl, err)
		}
	}
	runner := func() (float64, error) {
		if err := simulator.RunInto(&scratch, s.cfg.Program, pl, false); err != nil {
			return 0, err
		}
		agg.edgeFlops = scratch.EdgeFlops
		agg.accelFlops = scratch.AccelFlops
		agg.edgeJoules += scratch.EdgeJoules
		agg.accelJoules += scratch.AccelJoules
		agg.accelBusy += scratch.AccelBusy
		return scratch.Seconds, nil
	}
	sample, err := measure.Collect("alg"+pl.String(), runner, measure.Options{N: s.cfg.N})
	if err != nil {
		return measure.Sample{}, agg, err
	}
	runs := float64(s.cfg.N)
	agg.edgeJoules /= runs
	agg.accelJoules /= runs
	agg.accelBusy /= runs
	return sample, agg, nil
}

// measureSketchPlacement is measurePlacement for sketch mode: the same
// simulator stream (placementSeed) drives the same campaign, but each
// measurement streams into a fixed-capacity sketch instead of a slice. The
// sketch's ingest stream is keyed by (studySketchSeed(seed), i), so the
// summary — like the measurements — depends only on the study seed and the
// placement index, never on the worker that ran it.
func (s *Study) measureSketchPlacement(i int) (measure.SketchSample, aggregate, error) {
	pl := s.placements[i]
	var agg aggregate
	simulator, err := sim.NewSimulator(s.cfg.Platform, placementSeed(s.cfg.Seed, i))
	if err != nil {
		return measure.SketchSample{}, agg, err
	}
	sk, err := stats.NewSketch(s.cfg.SketchK, xrand.Mix(studySketchSeed(s.cfg.Seed), uint64(i)))
	if err != nil {
		return measure.SketchSample{}, agg, err
	}
	var scratch sim.RunResult
	for w := 0; w < s.cfg.Warmup; w++ {
		if err := simulator.RunInto(&scratch, s.cfg.Program, pl, false); err != nil {
			return measure.SketchSample{}, agg, fmt.Errorf("relperf: warmup %d of alg%s: %w", w, pl, err)
		}
	}
	runner := func() (float64, error) {
		if err := simulator.RunInto(&scratch, s.cfg.Program, pl, false); err != nil {
			return 0, err
		}
		agg.edgeFlops = scratch.EdgeFlops
		agg.accelFlops = scratch.AccelFlops
		agg.edgeJoules += scratch.EdgeJoules
		agg.accelJoules += scratch.AccelJoules
		agg.accelBusy += scratch.AccelBusy
		return scratch.Seconds, nil
	}
	sample, err := measure.CollectSketch("alg"+pl.String(), sk, runner, measure.Options{N: s.cfg.N})
	if err != nil {
		return measure.SketchSample{}, agg, err
	}
	runs := float64(s.cfg.N)
	agg.edgeJoules /= runs
	agg.accelJoules /= runs
	agg.accelBusy /= runs
	return sample, agg, nil
}

// Run executes the study: measure, compare, cluster, score, profile. The
// placements are measured on a worker pool and the clustering repetitions
// run concurrently; equal seeds yield bit-identical Results at every worker
// count (see the package comment).
func (s *Study) Run() (*Result, error) {
	return s.RunOn(context.Background(), nil)
}

// RunOn is Run with cancellation and an optional shared worker budget: when
// budget is non-nil every work unit of the study (placement campaigns,
// clustering repetitions, matrix pre-pass pairs) acquires a token from it
// instead of a private pool of StudyConfig.Workers goroutines, so many
// concurrent studies collectively respect one global concurrency bound —
// the fleet scheduler's execution mode. The Result is bit-identical
// whichever way the study runs.
func (s *Study) RunOn(ctx context.Context, budget *Budget) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var shared *pool.Pool
	if budget != nil {
		shared = budget.pool
	}
	p := len(s.placements)
	sketchMode := s.cfg.SketchK > 0
	res := &Result{}
	aggs := make([]aggregate, p)
	var measureOne func(i int) error
	if sketchMode {
		res.Sketches = &measure.SketchSet{
			Workload: s.cfg.Program.Name,
			Sketches: make([]measure.SketchSample, p),
		}
		measureOne = func(i int) error {
			var err error
			res.Sketches.Sketches[i], aggs[i], err = s.measureSketchPlacement(i)
			return err
		}
	} else {
		res.Samples = &measure.SampleSet{
			Workload: s.cfg.Program.Name,
			Samples:  make([]measure.Sample, p),
		}
		measureOne = func(i int) error {
			var err error
			res.Samples.Samples[i], aggs[i], err = s.measurePlacement(i)
			return err
		}
	}
	// Stage timings bracket whole pipeline stages — one time.Now pair per
	// stage, outside every per-placement and per-resample loop.
	mark := func(name string, start time.Time) {
		res.Stages = append(res.Stages, StageTiming{Name: name, Start: start, Seconds: time.Since(start).Seconds()})
	}
	stageStart := time.Now()
	if err := pool.ForEach(ctx, shared, p, s.cfg.Workers, measureOne); err != nil {
		return nil, err
	}
	if sketchMode {
		res.Names = res.Sketches.Names()
	} else {
		res.Names = res.Samples.Names()
	}
	mark(StageMeasure, stageStart)

	ccfg := clusterConfig{
		Reps:         s.cfg.Reps,
		Seed:         studyClusterSeed(s.cfg.Seed),
		Workers:      s.cfg.Workers,
		Matrix:       s.cfg.Matrix,
		MatrixTrials: s.cfg.MatrixTrials,
		Ctx:          ctx,
		Pool:         shared,
	}
	stageStart = time.Now()
	var err error
	if sketchMode {
		// NewStudy guarantees the comparator is nil or a SketchComparator;
		// the failed assertion leaves the zero value, i.e. the defaults.
		scmp, _ := s.cfg.Comparator.(compare.SketchComparator)
		res.Clusters, err = clusterSketches(res.Sketches, scmp, ccfg)
	} else {
		cmp := s.cfg.Comparator
		if cmp == nil {
			// Only the prototype's decision parameters matter: clusterData
			// replaces it with per-repetition forks keyed off the cluster
			// seed, so this RNG never draws.
			cmp = compare.NewBootstrap(0)
		}
		res.Clusters, err = clusterData(res.Samples, cmp, ccfg)
	}
	if err != nil {
		return nil, err
	}
	mark(StageCluster, stageStart)
	stageStart = time.Now()
	res.Final, err = res.Clusters.Finalize()
	if err != nil {
		return nil, err
	}

	mean := func(i int) float64 { return res.Sketches.Sketches[i].Sketch.Mean() }
	if !sketchMode {
		data := res.Samples.Data()
		mean = func(i int) float64 { return stats.Mean(data[i]) }
	}
	for i := range s.placements {
		res.Profiles = append(res.Profiles, decision.AlgorithmProfile{
			Name:         s.placements[i].String(),
			Rank:         res.Final.Rank[i],
			Score:        res.Final.Score[i],
			MeanSeconds:  mean(i),
			EdgeFlops:    aggs[i].edgeFlops,
			AccelFlops:   aggs[i].accelFlops,
			EdgeJoules:   aggs[i].edgeJoules,
			AccelJoules:  aggs[i].accelJoules,
			AccelSeconds: aggs[i].accelBusy,
		})
	}
	mark(StageFinalize, stageStart)
	return res, nil
}

// clusterConfig parameterizes the shared comparison-and-clustering stage.
type clusterConfig struct {
	Reps         int
	Seed         uint64
	Workers      int
	Matrix       bool
	MatrixTrials int
	Ctx          context.Context
	Pool         *pool.Pool
}

// clusterData runs the clustering stage over measured distributions: the
// repetitions execute in parallel, each on a fork of cmp keyed off the
// repetition (and optionally via the precomputed pairwise matrix).
//
// When the forked comparators also implement compare.SortedComparator
// (bootstrap, KS), every sample is sorted exactly once up front —
// ss.Sorted() — and all comparisons of all repetitions and matrix trials
// read off the shared sorted views, bit-identically to the raw path.
func clusterData(ss *measure.SampleSet, cmp compare.Comparator, cfg clusterConfig) (*core.ClusterResult, error) {
	data := ss.Data()
	var sorted []*stats.SortedSample
	if _, ok := cmp.Fork(0).(compare.SortedComparator); ok {
		// Pre-sort all samples once; the clustering and matrix stages
		// then never re-derive sample order.
		sorted = ss.Sorted()
	}
	fork := func(seed uint64) core.CompareFunc {
		c := cmp.Fork(seed)
		// A Fork that changes type mid-stream falls back to raw samples.
		if sc, ok := c.(compare.SortedComparator); ok && sorted != nil {
			return func(i, j int) (compare.Outcome, error) { return sc.CompareSorted(sorted[i], sorted[j]) }
		}
		return func(i, j int) (compare.Outcome, error) { return c.Compare(data[i], data[j]) }
	}
	if cfg.Matrix {
		return core.ClusterMatrix(len(data), core.MatrixOptions{
			Reps:    cfg.Reps,
			Trials:  cfg.MatrixTrials,
			Workers: cfg.Workers,
			Seed:    cfg.Seed,
			Fork:    fork,
			Pool:    cfg.Pool,
			Ctx:     cfg.Ctx,
		})
	}
	return core.Cluster(len(data), core.ClusterOptions{
		Reps:    cfg.Reps,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Fork:    fork,
		Pool:    cfg.Pool,
		Ctx:     cfg.Ctx,
	})
}

// clusterSketches is the sketch-mode clustering stage: the repetitions run
// on the same worker pool under the same seed derivation as clusterData,
// but every comparison reads the two placements' frozen sketches. The
// comparator is deterministic and stateless (its Fork is the identity), so
// all repetitions share it; the sketches' lazy quantile caches are
// mutex-guarded, so concurrent reads are safe.
func clusterSketches(ss *measure.SketchSet, cmp compare.SketchComparator, cfg clusterConfig) (*core.ClusterResult, error) {
	sks := make([]*stats.Sketch, len(ss.Sketches))
	for i := range ss.Sketches {
		sks[i] = ss.Sketches[i].Sketch
	}
	fork := func(uint64) core.CompareFunc {
		return func(i, j int) (compare.Outcome, error) { return cmp.CompareSketches(sks[i], sks[j]) }
	}
	return core.Cluster(len(sks), core.ClusterOptions{
		Reps:    cfg.Reps,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Fork:    fork,
		Pool:    cfg.Pool,
		Ctx:     cfg.Ctx,
	})
}

// ClusterSamplesOptions configures ClusterSamples.
type ClusterSamplesOptions struct {
	// Reps is the number of clustering repetitions (default 100).
	Reps int
	// Seed keys every stochastic stream of the stage.
	Seed uint64
	// Workers bounds the repetition pool; 0 means GOMAXPROCS. The results
	// do not depend on this value.
	Workers int
	// Matrix enables the precomputed pairwise-statistics path; see
	// StudyConfig.Matrix.
	Matrix bool
	// MatrixTrials is the per-pair trial count on the Matrix path
	// (default 32).
	MatrixTrials int
}

// ClusterSamples runs the comparison and clustering stages over pre-measured
// distributions (e.g. loaded from CSV with measure.ReadCSV) — the paper's
// footnote-5 workflow of re-clustering archived measurements. The
// repetitions run on a worker pool, each on a fork of cmp (or of the
// default bootstrap comparator), under the same determinism contract as
// Study.Run. As with StudyConfig.Comparator, cmp contributes only its
// decision parameters — all clustering randomness derives from opts.Seed,
// not from any RNG built into cmp.
//
// The engine sorts every sample once up front and reuses the sorted views
// across calls (measure.SampleSet.Sorted). Samples that grow or visibly
// change between calls are re-sorted automatically; beyond that, the set
// is assumed immutable while being clustered — the methodology re-clusters
// archived measurements (footnote 5), it never edits them in place.
func ClusterSamples(ss *measure.SampleSet, cmp compare.Comparator, opts ClusterSamplesOptions) (*core.ClusterResult, *core.FinalAssignment, error) {
	if err := ss.Validate(); err != nil {
		return nil, nil, err
	}
	if cmp == nil {
		cmp = compare.NewBootstrap(opts.Seed)
	}
	if opts.Reps <= 0 {
		opts.Reps = 100
	}
	cr, err := clusterData(ss, cmp, clusterConfig{
		Reps:         opts.Reps,
		Seed:         opts.Seed,
		Workers:      opts.Workers,
		Matrix:       opts.Matrix,
		MatrixTrials: opts.MatrixTrials,
	})
	if err != nil {
		return nil, nil, err
	}
	fa, err := cr.Finalize()
	if err != nil {
		return nil, nil, err
	}
	return cr, fa, nil
}

// WriteReport renders the study in the paper's format: distribution
// summaries, the Table-I-style cluster table and the final clustering. In
// sketch mode the summaries are read off the sketches and headed by the
// mode's rank-error bound.
func (r *Result) WriteReport(w io.Writer) error {
	if r.Sketches != nil {
		if _, err := fmt.Fprintf(w, "Workload: %s\n\nSummarized distributions (sketch k=%d, rank error ≤ %.4f):\n",
			r.Sketches.Workload, r.Sketches.K(), stats.SketchEpsilon(r.Sketches.K())); err != nil {
			return err
		}
		sks := make([]*stats.Sketch, len(r.Sketches.Sketches))
		for i := range r.Sketches.Sketches {
			sks[i] = r.Sketches.Sketches[i].Sketch
		}
		if err := report.SketchSummaryTable(w, r.Names, sks); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "Workload: %s\n\nMeasured distributions:\n", r.Samples.Workload); err != nil {
			return err
		}
		if err := report.SummaryTable(w, r.Names, r.Samples.Data()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nClustering (Rep=%d):\n", r.Clusters.Reps); err != nil {
		return err
	}
	if err := report.ClusterTable(w, r.Clusters, r.Names); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "\nFinal clustering:"); err != nil {
		return err
	}
	return report.FinalTable(w, r.Final, r.Names)
}

// ProfileByName returns the decision profile for a placement name like
// "DDA", or an error when absent. The name index is built lazily on the
// first lookup and shared by all subsequent ones, so serving many queries
// against one Result costs O(1) per lookup rather than a scan. Profiles
// must not be mutated after the first lookup.
func (r *Result) ProfileByName(name string) (decision.AlgorithmProfile, error) {
	r.profileOnce.Do(func() {
		r.profileIdx = make(map[string]int, len(r.Profiles))
		for i := range r.Profiles {
			if _, dup := r.profileIdx[r.Profiles[i].Name]; !dup {
				r.profileIdx[r.Profiles[i].Name] = i
			}
		}
	})
	if i, ok := r.profileIdx[name]; ok {
		return r.Profiles[i], nil
	}
	return decision.AlgorithmProfile{}, fmt.Errorf("relperf: no profile named %q", name)
}
