package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeEveryWorkload builds relperfd from this checkout and runs each
// workload briefly, untraced and traced, on a small fixture: every op must
// succeed, every check pass, and each mode report exactly the metrics
// BENCHMARK.json names for it.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds relperfd and starts daemons")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "relperfd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/relperfd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building relperfd: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, trace := range []int{0, 1} {
			o := options{
				workload: w, seed: 3, seconds: 1, trace: trace, relperfd: bin,
				workdir: filepath.Join(dir, "work"), fixtureStudies: 400, setups: 2, clients: 2,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			rep, err := run(ctx, o)
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if trace == 1 {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s (%s) missing or in another unit: %+v", w, trace, m.Name, m.Unit, got)
				}
			}
			if w == wlWarm && trace == 1 && rep.Metrics["sched.computes"].Value != 0 {
				t.Errorf("warm-read computed %v studies", rep.Metrics["sched.computes"].Value)
			}
		}
	}
}
