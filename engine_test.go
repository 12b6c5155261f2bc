package relperf

import (
	"runtime"
	"testing"

	"relperf/internal/compare"
	"relperf/internal/core"
	"relperf/internal/measure"
	"relperf/internal/sim"
	"relperf/internal/xrand"
)

// resultsIdentical asserts two study results are bit-identical: every
// measurement, every score, every rank, every profile field.
func resultsIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Names) != len(b.Names) {
		t.Fatalf("name counts differ: %d vs %d", len(a.Names), len(b.Names))
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			t.Fatalf("name %d differs: %s vs %s", i, a.Names[i], b.Names[i])
		}
		as, bs := a.Samples.Samples[i].Seconds, b.Samples.Samples[i].Seconds
		if len(as) != len(bs) {
			t.Fatalf("sample %d lengths differ", i)
		}
		for j := range as {
			if as[j] != bs[j] {
				t.Fatalf("sample %d measurement %d differs: %v vs %v", i, j, as[j], bs[j])
			}
		}
	}
	clusterResultsIdentical(t, a.Clusters, b.Clusters)
	for i := range a.Final.Rank {
		if a.Final.Rank[i] != b.Final.Rank[i] || a.Final.Score[i] != b.Final.Score[i] {
			t.Fatalf("final assignment %d differs", i)
		}
	}
	for i := range a.Profiles {
		if a.Profiles[i] != b.Profiles[i] {
			t.Fatalf("profile %d differs: %+v vs %+v", i, a.Profiles[i], b.Profiles[i])
		}
	}
}

func clusterResultsIdentical(t *testing.T, a, b *core.ClusterResult) {
	t.Helper()
	if a.P != b.P || a.Reps != b.Reps || a.K != b.K || a.MeanK != b.MeanK {
		t.Fatalf("cluster meta differs: %+v vs %+v", a, b)
	}
	for alg := range a.Scores {
		for r := range a.Scores[alg] {
			if a.Scores[alg][r] != b.Scores[alg][r] {
				t.Fatalf("score[%d][%d] differs: %v vs %v", alg, r, a.Scores[alg][r], b.Scores[alg][r])
			}
		}
	}
}

// TestStudyRunWorkerDeterminism is the engine's central property: for
// several seeds, Workers=1, Workers=4 and Workers=GOMAXPROCS must produce
// bit-identical Results.
func TestStudyRunWorkerDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		run := func(workers int) *Result {
			study, err := NewStudy(StudyConfig{
				Program: smallProgram(),
				N:       12,
				Warmup:  2,
				Reps:    30,
				Seed:    seed,
				Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := study.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(1)
		for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
			resultsIdentical(t, ref, run(w))
		}
	}
}

// TestStudyRunMatrixWorkerDeterminism: the matrix path obeys the same
// contract.
func TestStudyRunMatrixWorkerDeterminism(t *testing.T) {
	run := func(workers int) *Result {
		study, err := NewStudy(StudyConfig{
			Program: smallProgram(),
			N:       12,
			Reps:    30,
			Seed:    11,
			Workers: workers,
			Matrix:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := study.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		resultsIdentical(t, ref, run(w))
	}
}

// TestClusterWorkerDeterminism: core.Cluster on the Fork path produces
// bit-identical ClusterResults at every worker count, for several seeds.
func TestClusterWorkerDeterminism(t *testing.T) {
	rng := xrand.New(5)
	data := make([][]float64, 6)
	for i := range data {
		m := 1 + 0.02*float64(i) // closely spaced: stochastic comparisons
		data[i] = make([]float64, 25)
		for j := range data[i] {
			data[i][j] = m * rng.LogNormal(0, 0.05)
		}
	}
	proto := compare.NewBootstrap(0)
	fork := func(seed uint64) core.CompareFunc {
		c := proto.Fork(seed)
		return func(i, j int) (compare.Outcome, error) { return c.Compare(data[i], data[j]) }
	}
	for _, seed := range []uint64{3, 19, 101} {
		run := func(workers int) *core.ClusterResult {
			cr, err := core.Cluster(len(data), core.ClusterOptions{
				Reps: 40, Seed: seed, Workers: workers, Fork: fork,
			})
			if err != nil {
				t.Fatal(err)
			}
			return cr
		}
		ref := run(1)
		for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
			clusterResultsIdentical(t, ref, run(w))
		}
	}
}

// TestStudyWarmupNotContaminating verifies the warmup fix: the energy/busy
// profile must equal the mean over the N measured runs only, reproduced
// here from the placement's keyed simulator stream.
func TestStudyWarmupNotContaminating(t *testing.T) {
	const n, warmup = 10, 4
	prog := smallProgram()
	study, err := NewStudy(StudyConfig{Program: prog, N: n, Warmup: warmup, Reps: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	placements := sim.EnumeratePlacements(len(prog.Tasks))
	for i, pl := range placements {
		simulator, err := sim.NewSimulator(DefaultPlatform(), placementSeed(21, i))
		if err != nil {
			t.Fatal(err)
		}
		var wantEdge, wantAccel, wantBusy float64
		for r := 0; r < warmup+n; r++ {
			rr, err := simulator.Run(prog, pl)
			if err != nil {
				t.Fatal(err)
			}
			if r < warmup {
				continue // warmup runs must not contribute
			}
			wantEdge += rr.EdgeJoules
			wantAccel += rr.AccelJoules
			wantBusy += rr.AccelBusy
		}
		p := res.Profiles[i]
		if !almostEqual(p.EdgeJoules, wantEdge/n) || !almostEqual(p.AccelJoules, wantAccel/n) || !almostEqual(p.AccelSeconds, wantBusy/n) {
			t.Fatalf("placement %s: profile %+v contaminated by warmup (want edge %v accel %v busy %v)",
				pl, p, wantEdge/n, wantAccel/n, wantBusy/n)
		}
	}
}

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-12*scale
}

// TestClusterSamplesMatrix: the matrix path separates clearly distinct
// distributions exactly like the live path.
func TestClusterSamplesMatrix(t *testing.T) {
	ss := &measure.SampleSet{
		Workload: "w",
		Samples: []measure.Sample{
			{Name: "fast", Seconds: []float64{1, 1.01, 1.02, 0.99, 1.0, 1.03, 0.98, 1.01, 1.0, 1.02}},
			{Name: "mid", Seconds: []float64{1.5, 1.51, 1.52, 1.49, 1.5, 1.53, 1.48, 1.51, 1.5, 1.52}},
			{Name: "slow", Seconds: []float64{2, 2.01, 2.02, 1.99, 2.0, 2.03, 1.98, 2.01, 2.0, 2.02}},
		},
	}
	cr, fa, err := ClusterSamples(ss, nil, ClusterSamplesOptions{Reps: 30, Seed: 5, Matrix: true})
	if err != nil {
		t.Fatal(err)
	}
	if cr.K != 3 {
		t.Fatalf("K = %d, want 3 (clearly separated)", cr.K)
	}
	for i, want := range []int{1, 2, 3} {
		if fa.Rank[i] != want {
			t.Fatalf("ranks = %v", fa.Rank)
		}
	}
}

// TestEngineRaceExercise drives every parallel path at full width so `go
// test -race` patrols the engine: concurrent measurement, concurrent
// repetitions, and the matrix pre-pass, all sharing one Platform.
func TestEngineRaceExercise(t *testing.T) {
	for _, matrix := range []bool{false, true} {
		study, err := NewStudy(StudyConfig{
			Program: TableIProgram(2),
			N:       8,
			Warmup:  1,
			Reps:    24,
			Seed:    13,
			Matrix:  matrix,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := study.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
