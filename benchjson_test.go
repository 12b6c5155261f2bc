// Machine-readable benchmark emission: TestEmitEngineBenchJSON re-runs the
// engine benchmarks through testing.Benchmark and writes BENCH_engine.json,
// so successive PRs can track the perf trajectory without parsing go-bench
// text output. It is opt-in (RELPERF_EMIT_BENCH=1, wired to `make bench`)
// because it costs several full study executions.
package relperf_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"relperf"
	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// benchRecord is one benchmark's result in BENCH_engine.json.
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// engineBenchReport is the top-level BENCH_engine.json document.
type engineBenchReport struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	Benchmarks []benchRecord `json:"benchmarks"`
	// SpeedupParallel is serial ns/op over parallel ns/op for the
	// Table-I-sized study; ≈1 on a single-core runner, ≥2 expected on 4
	// cores.
	SpeedupParallel float64 `json:"speedup_parallel"`
	// SpeedupMatrix is serial ns/op over parallel-matrix ns/op.
	SpeedupMatrix float64 `json:"speedup_matrix"`
	// SpeedupBootstrap is the old (value-space, per-round insertion sort)
	// bootstrap WinRate ns/op over the index-space kernel's, at N=500 —
	// single-threaded by construction, so the floor holds on any runner.
	SpeedupBootstrap float64 `json:"speedup_bootstrap"`
	// ServeNsPerOp is the cached GET /v1/studies/{fp} latency through the
	// full handler stack (BenchmarkServerGetStudy); `make bench-check`
	// holds it under a committed ceiling so the serving path — including
	// the obs middleware — cannot silently regress.
	ServeNsPerOp float64 `json:"serve_ns_per_op"`
	// SketchBytesPerMeasurement is a sketch-mode result's wire size divided
	// by the campaign's total measurement count (N=2000 per placement,
	// k=256); ExactBytesPerMeasurement is the same study's exact-mode
	// counterpart. `make bench-check` holds the sketch figure under a
	// committed ceiling and strictly below the exact one — the O(k·log N)
	// vs O(N) capacity claim, enforced as numbers.
	SketchBytesPerMeasurement float64 `json:"sketch_bytes_per_measurement"`
	ExactBytesPerMeasurement  float64 `json:"exact_bytes_per_measurement"`
}

// benchStudy is the Table-I-sized engine workload shared by
// BenchmarkEngineSerialVsParallel and the JSON emitter below, so the
// go-bench output and BENCH_engine.json always measure the same thing.
func benchStudy(workers int, matrix bool) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			study, err := relperf.NewStudy(relperf.StudyConfig{
				Program: relperf.TableIProgram(10),
				N:       30,
				Reps:    100,
				Seed:    1,
				Workers: workers,
				Matrix:  matrix,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := study.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchStudyAt parameterizes the engine benchmark over campaign size and
// mode: sketchK = 0 is the exact path, > 0 the sketch path at that capacity.
func benchStudyAt(n, reps, sketchK int) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			study, err := relperf.NewStudy(relperf.StudyConfig{
				Program: relperf.TableIProgram(10),
				N:       n,
				Reps:    reps,
				Seed:    1,
				SketchK: sketchK,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := study.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSketchAdd measures the sketch's streaming ingest hot path at
// steady state: a k=256 sketch far past compaction onset, fed pre-drawn
// log-normal "execution times".
func BenchmarkSketchAdd(b *testing.B) {
	vals := make([]float64, 8192)
	r := xrand.New(1)
	for i := range vals {
		vals[i] = r.LogNormal(-3, 0.5)
	}
	sk, err := stats.NewSketch(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range vals {
		sk.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(vals[i&(len(vals)-1)])
	}
}

// BenchmarkSketchVsExactStudy runs the same mid-size Table-I study both
// ways, so `go test -bench SketchVsExact` prints the mode trade-off
// directly.
func BenchmarkSketchVsExactStudy(b *testing.B) {
	b.Run("exact", benchStudyAt(1000, 10, 0))
	b.Run("sketch", benchStudyAt(1000, 10, 256))
}

// wireBytesPerMeasurement runs one N=2000 Table-I study in the given mode
// and divides its wire-document size by the campaign's total measurement
// count (8 placements × N).
func wireBytesPerMeasurement(t *testing.T, sketchK int) float64 {
	t.Helper()
	study, err := relperf.NewStudy(relperf.StudyConfig{
		Program: relperf.TableIProgram(10),
		N:       2000,
		Reps:    10,
		Seed:    1,
		SketchK: sketchK,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := res.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	return float64(len(wire)) / float64(8*2000)
}

func TestEmitEngineBenchJSON(t *testing.T) {
	if os.Getenv("RELPERF_EMIT_BENCH") == "" {
		t.Skip("set RELPERF_EMIT_BENCH=1 (or run `make bench`) to emit BENCH_engine.json")
	}
	record := func(name string, r testing.BenchmarkResult) benchRecord {
		return benchRecord{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}

	serial := testing.Benchmark(benchStudy(1, false))
	parallel := testing.Benchmark(benchStudy(0, false))
	matrix := testing.Benchmark(benchStudy(0, true))
	cmpBench := testing.Benchmark(BenchmarkBootstrapCompareAllocs)
	// N=10 and N=16 are the sample sizes of the benchmark's exact and
	// matrix studies (perfbench cold-compute).
	cmp10 := testing.Benchmark(benchBootstrapCompare(10))
	cmp16 := testing.Benchmark(benchBootstrapCompare(16))
	serve := testing.Benchmark(BenchmarkServerGetStudy)
	summary := testing.Benchmark(BenchmarkServerStudySummary)
	index4 := testing.Benchmark(benchServerIndexPage(10_000))
	index5 := testing.Benchmark(benchServerIndexPage(100_000))
	sketchAdd := testing.Benchmark(BenchmarkSketchAdd)
	sketchStudy := testing.Benchmark(benchStudyAt(1000, 10, 256))

	report := engineBenchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Benchmarks: []benchRecord{
			record("EngineStudy/serial", serial),
			record("EngineStudy/parallel", parallel),
			record("EngineStudy/parallel-matrix", matrix),
			record("EngineStudy/sketch", sketchStudy),
			record("BootstrapCompare", cmpBench),
			record("BootstrapCompare/N=10", cmp10),
			record("BootstrapCompare/N=16", cmp16),
			record("ServerGetStudy", serve),
			record("ServerStudySummary", summary),
			record("ServerIndexPage/n=10000", index4),
			record("ServerIndexPage/n=100000", index5),
			record("SketchAdd", sketchAdd),
		},
		SpeedupParallel:           float64(serial.NsPerOp()) / float64(parallel.NsPerOp()),
		SpeedupMatrix:             float64(serial.NsPerOp()) / float64(matrix.NsPerOp()),
		ServeNsPerOp:              float64(serve.NsPerOp()),
		SketchBytesPerMeasurement: wireBytesPerMeasurement(t, 256),
		ExactBytesPerMeasurement:  wireBytesPerMeasurement(t, 0),
	}
	if sketchAdd.AllocsPerOp() > 0 {
		t.Errorf("Sketch.Add allocates %d/op at steady state, want 0", sketchAdd.AllocsPerOp())
	}
	for _, r := range []testing.BenchmarkResult{cmpBench, cmp10, cmp16} {
		if r.AllocsPerOp() != 0 {
			t.Errorf("Bootstrap.Compare allocates %d/op after warm-up, want 0", r.AllocsPerOp())
		}
	}

	// Bootstrap kernel, old vs new, at every spec-admissible sample size;
	// speedup_bootstrap carries the N=500 ratio that `make bench-check`
	// holds to its floor.
	for _, n := range []int{50, 500, 5000} {
		old := testing.Benchmark(benchWinRateOld(n))
		new_ := testing.Benchmark(benchWinRateNew(n))
		report.Benchmarks = append(report.Benchmarks,
			record("WinRate/N="+itoa(n)+"/old", old),
			record("WinRate/N="+itoa(n)+"/new", new_),
		)
		if new_.AllocsPerOp() != 0 {
			t.Errorf("index-space WinRate at N=%d allocates %d/op after warm-up, want 0",
				n, new_.AllocsPerOp())
		}
		if n == 500 {
			report.SpeedupBootstrap = float64(old.NsPerOp()) / float64(new_.NsPerOp())
		}
	}

	f, err := os.Create("BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_engine.json: parallel speedup %.2fx, matrix speedup %.2fx, bootstrap speedup %.2fx, sketch %.2f B/meas vs exact %.2f B/meas (GOMAXPROCS=%d)",
		report.SpeedupParallel, report.SpeedupMatrix, report.SpeedupBootstrap,
		report.SketchBytesPerMeasurement, report.ExactBytesPerMeasurement, report.GoMaxProcs)
}
