package fleet

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"relperf"
)

// TestExampleSuiteDecodes keeps examples/suite.json (the daemon's demo
// startup suite, including its declarative study) decodable and resolvable.
func TestExampleSuiteDecodes(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	req, err := DecodeSuiteRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Studies) < 5 {
		t.Fatalf("example suite has %d studies, expected the declarative one to be present", len(req.Studies))
	}
	for i := range req.Studies {
		cfg, err := req.Studies[i].Config()
		if err != nil {
			t.Fatalf("study %d: %v", i, err)
		}
		if _, err := relperf.Fingerprint(cfg); err != nil {
			t.Fatalf("study %d: %v", i, err)
		}
	}
}

// TestSchedulerSubmitSpecs: the spec path dedupes like Submit, retains
// every spec in the store, and an invalid spec poisons the whole batch
// before any spec is retained or any computation starts.
func TestSchedulerSubmitSpecs(t *testing.T) {
	s := New(Options{Workers: 2, Seed: 5})
	defer s.Close()
	specA := StudySpec{Workload: "tableI", LoopN: 2, Measurements: 6, Reps: 10}
	specB := StudySpec{Workload: "tableI", LoopN: 3, Measurements: 6, Reps: 10}
	fps, err := s.SubmitSpecs([]StudySpec{specA, specB, specA})
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 3 || fps[0] != fps[2] || fps[0] == fps[1] {
		t.Fatalf("fingerprints = %v", fps)
	}
	for _, fp := range fps {
		if _, ok := s.Store().Spec(fp); !ok {
			t.Fatalf("spec for %s not retained", fp)
		}
		if _, err := s.Result(context.Background(), fp); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Computes(); got != 2 {
		t.Fatalf("computes = %d for a spec suite with one duplicate", got)
	}

	before := s.Store().Stats().Specs
	if _, err := s.SubmitSpecs([]StudySpec{{Workload: "fig1"}, {Workload: "nope"}}); err == nil {
		t.Fatal("invalid spec batch accepted")
	}
	if got := s.Store().Stats().Specs; got != before {
		t.Fatalf("failed batch retained specs: %d -> %d", before, got)
	}
	if _, err := s.SubmitSpecs(nil); err == nil {
		t.Fatal("empty spec batch accepted")
	}
}
