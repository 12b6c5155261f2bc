package relperf

import (
	"bytes"
	"strings"
	"testing"

	"relperf/internal/compare"
	"relperf/internal/measure"
	"relperf/internal/sim"
)

func smallProgram() *sim.Program {
	// A cheap two-task program with a clear offload trade-off.
	return &sim.Program{
		Name: "test-prog",
		Tasks: []sim.Task{
			{Name: "L1", Flops: 5e8, Launches: 10, HostInBytes: 1e6, HostOutBytes: 1e6, Transfers: 3, EdgeEff: 1, AccelEff: 0.01},
			{Name: "L2", Flops: 2e9, Launches: 10, HostInBytes: 5e6, HostOutBytes: 1e6, Transfers: 3, EdgeEff: 1, AccelEff: 0.05},
		},
	}
}

func TestNewStudyValidation(t *testing.T) {
	if _, err := NewStudy(StudyConfig{}); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := NewStudy(StudyConfig{Program: &sim.Program{Name: "empty"}}); err == nil {
		t.Fatal("empty program accepted")
	}
	badPl, _ := sim.ParsePlacement("DAD")
	if _, err := NewStudy(StudyConfig{
		Program:    smallProgram(),
		Placements: []sim.Placement{badPl},
	}); err == nil {
		t.Fatal("mismatched placement accepted")
	}
	dd, _ := sim.ParsePlacement("DD")
	if _, err := NewStudy(StudyConfig{
		Program:    smallProgram(),
		Placements: []sim.Placement{dd, dd},
	}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("repeated placement: got %v, want a \"twice\" error", err)
	}
}

func TestStudyRunEndToEnd(t *testing.T) {
	study, err := NewStudy(StudyConfig{
		Program: smallProgram(),
		N:       20,
		Reps:    50,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 4 {
		t.Fatalf("names = %v", res.Names)
	}
	if err := res.Samples.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Clusters.K < 1 || res.Clusters.K > 4 {
		t.Fatalf("K = %d", res.Clusters.K)
	}
	if res.Final.K < 1 {
		t.Fatal("no final classes")
	}
	if len(res.Profiles) != 4 {
		t.Fatalf("profiles = %d", len(res.Profiles))
	}
	for _, p := range res.Profiles {
		if p.MeanSeconds <= 0 {
			t.Fatalf("profile %s has non-positive mean", p.Name)
		}
		if p.Rank < 1 || p.Rank > res.Final.K {
			t.Fatalf("profile %s rank %d out of range", p.Name, p.Rank)
		}
		if p.Score <= 0 || p.Score > 1+1e-9 {
			t.Fatalf("profile %s score %v", p.Name, p.Score)
		}
	}
	// DD runs everything locally: zero accelerator footprint.
	dd, err := res.ProfileByName("DD")
	if err != nil {
		t.Fatal(err)
	}
	if dd.AccelFlops != 0 || dd.AccelSeconds != 0 {
		t.Fatalf("DD profile has accelerator usage: %+v", dd)
	}
	aa, _ := res.ProfileByName("AA")
	if aa.EdgeFlops != 0 {
		t.Fatalf("AA profile has edge flops: %+v", aa)
	}
	if _, err := res.ProfileByName("ZZ"); err == nil {
		t.Fatal("unknown profile name accepted")
	}
}

func TestStudyReproducible(t *testing.T) {
	run := func() *Result {
		study, err := NewStudy(StudyConfig{Program: smallProgram(), N: 10, Reps: 20, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		res, err := study.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Samples.Samples {
		for j := range a.Samples.Samples[i].Seconds {
			if a.Samples.Samples[i].Seconds[j] != b.Samples.Samples[i].Seconds[j] {
				t.Fatal("samples differ across identical studies")
			}
		}
	}
	for i := range a.Final.Rank {
		if a.Final.Rank[i] != b.Final.Rank[i] {
			t.Fatal("final ranks differ across identical studies")
		}
	}
}

func TestStudyRestrictedPlacements(t *testing.T) {
	pl1, _ := sim.ParsePlacement("DD")
	pl2, _ := sim.ParsePlacement("AA")
	study, err := NewStudy(StudyConfig{
		Program:    smallProgram(),
		Placements: []sim.Placement{pl1, pl2},
		N:          10,
		Reps:       20,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 2 || res.Names[0] != "algDD" {
		t.Fatalf("names = %v", res.Names)
	}
}

func TestStudyCustomComparator(t *testing.T) {
	study, err := NewStudy(StudyConfig{
		Program:    smallProgram(),
		N:          10,
		Reps:       10,
		Comparator: compare.KS{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := study.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReport(t *testing.T) {
	study, _ := NewStudy(StudyConfig{Program: smallProgram(), N: 15, Reps: 30, Seed: 4})
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Workload: test-prog", "Measured distributions", "Clustering", "Final clustering", "algDD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestClusterSamples(t *testing.T) {
	ss := &measure.SampleSet{
		Workload: "w",
		Samples: []measure.Sample{
			{Name: "fast", Seconds: []float64{1, 1.01, 1.02, 0.99, 1.0, 1.03, 0.98, 1.01, 1.0, 1.02}},
			{Name: "slow", Seconds: []float64{2, 2.01, 2.02, 1.99, 2.0, 2.03, 1.98, 2.01, 2.0, 2.02}},
		},
	}
	cr, fa, err := ClusterSamples(ss, nil, ClusterSamplesOptions{Reps: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cr.K != 2 {
		t.Fatalf("K = %d, want 2 (clearly separated)", cr.K)
	}
	if fa.Rank[0] != 1 || fa.Rank[1] != 2 {
		t.Fatalf("ranks = %v", fa.Rank)
	}
	// Invalid set rejected.
	if _, _, err := ClusterSamples(&measure.SampleSet{}, nil, ClusterSamplesOptions{Reps: 10, Seed: 1}); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestPublicConstructors(t *testing.T) {
	if err := DefaultPlatform().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := TableIProgram(10).Validate(); err != nil {
		t.Fatal(err)
	}
	if len(TableIProgram(5).Tasks) != 3 {
		t.Fatal("program shapes wrong")
	}
}
