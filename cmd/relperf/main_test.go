package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuildStudy: the -workload/-n flags resolve through StudySpec, -n
// reaches LoopN only when given, and the spec rejects what it cannot run.
func TestBuildStudy(t *testing.T) {
	cases := []struct {
		args     []string
		wantLoop int
		wantErr  bool
	}{
		{[]string{"-workload", "tableI"}, 0, false},
		{[]string{"-workload", "tableI", "-n", "5"}, 5, false},
		{[]string{"-workload", "fig1"}, 0, false},
		{[]string{"-workload", "fig1", "-n", "5"}, 5, true},
		{[]string{"-workload", "nope"}, 0, true},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("study", flag.ContinueOnError)
		wl := fs.String("workload", "tableI", "")
		n := fs.Int("n", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		sp := workloadSpec(fs, *wl, *n)
		if sp.LoopN != tc.wantLoop {
			t.Errorf("%v: LoopN = %d, want %d", tc.args, sp.LoopN, tc.wantLoop)
		}
		if _, err := specStudy(sp, 1, 2); (err != nil) != tc.wantErr {
			t.Errorf("%v: err = %v, want error %v", tc.args, err, tc.wantErr)
		}
	}
}

func TestCmdMeasureClusterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "runs.csv")
	if err := cmdMeasure([]string{"-workload", "tableI", "-n", "2", "-N", "5", "-out", out}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty CSV written")
	}
	// Re-cluster the archived measurements (footnote-5 workflow).
	if err := cmdCluster([]string{"-in", out, "-reps", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdClusterErrors(t *testing.T) {
	if err := cmdCluster([]string{}); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := cmdCluster([]string{"-in", "/nonexistent/file.csv"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCmdStudy(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-workload", "tableI", "-n", "2", "-N", "5", "-reps", "10"}, ""},
		{[]string{"-workload", "bogus"}, "unknown workload"},
		// fig1's loops are fixed: an explicit -n is an error, not a no-op.
		{[]string{"-workload", "fig1", "-n", "5", "-N", "5", "-reps", "10"}, "loop_n"},
	}
	for _, tc := range cases {
		err := cmdStudy(tc.args)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v: %v", tc.args, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.wantErr)
		}
	}
	if err := cmdMeasure([]string{"-workload", "fig1", "-n", "5", "-N", "5"}); err == nil {
		t.Error("measure: -n with fig1 accepted")
	}
}

// TestCmdStudySpecMode: -spec runs a declarative spec file through the same
// schema the daemon serves, and rejects invalid specs with an error.
func TestCmdStudySpecMode(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(good, []byte(`{
		"program": {"name": "cli-spec", "tasks": [
			{"name": "L1", "kernel": "gemm", "size": 48, "iters": 6},
			{"name": "L2", "kernel": "raw", "flops": 2e8, "launches": 4, "accel_eff": 0.1}
		]},
		"platform": {"edge": {"preset": "raspberry-pi-4"}, "link": {"preset": "wifi"}},
		"measurements": 5,
		"reps": 8
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdStudy([]string{"-spec", good, "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStudy([]string{"-spec", good, "-seed", "3", "-json"}); err != nil {
		t.Fatal(err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"workload":"tableI","reps":-1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdStudy([]string{"-spec", bad}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if err := cmdStudy([]string{"-spec", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing spec file accepted")
	}

	// Study-shaping flags would be silently shadowed by the spec file, so
	// combining them with -spec must error, not no-op.
	if err := cmdStudy([]string{"-spec", good, "-matrix", "-reps", "500"}); err == nil {
		t.Fatal("-spec combined with -matrix/-reps accepted")
	}
	// -seed/-workers/-json are runtime concerns and stay allowed (covered
	// by the successful runs above).
}

// TestCmdStudySpecExample keeps examples/spec_custom.json runnable: the
// committed example must parse, validate and resolve (execution is covered
// by the cheap spec above — the example uses report-scale parameters).
func TestCmdStudySpecExample(t *testing.T) {
	if _, err := buildSpecStudy(filepath.Join("..", "..", "examples", "spec_custom.json"), 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPlacements(t *testing.T) {
	if err := cmdPlacements([]string{"-tasks", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPlacements([]string{"-tasks", "0"}); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if err := cmdPlacements([]string{"-tasks", "99"}); err == nil {
		t.Fatal("huge task count accepted")
	}
}
