// Serving-path benchmark: BenchmarkServerGetStudy measures a cached
// GET /v1/studies/{fp} through the full daemon handler stack — mux routing,
// obs middleware, store lookup, response write — without a network socket,
// so the number tracks handler overhead rather than loopback TCP. The
// emitter in benchjson_test.go publishes it as serve_ns_per_op in
// BENCH_engine.json, where `make bench-check` holds it under a committed
// ceiling: the observability middleware must stay invisible on the read
// path.
package relperf_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"relperf"
	"relperf/internal/fleet"
)

// newBenchServer computes one small study and returns a server for which
// that study is a guaranteed cache hit, plus the request that fetches it.
func newBenchServer(tb testing.TB) (*fleet.Server, *fleet.Scheduler, *http.Request) {
	tb.Helper()
	sched := fleet.New(fleet.Options{Workers: 0, Seed: 1})
	srv := fleet.NewServer(sched)
	fps, err := sched.SubmitSpecs([]relperf.StudySpec{{Workload: "tableI", LoopN: 2, Measurements: 6, Reps: 10}})
	if err == nil {
		_, err = sched.Result(context.Background(), fps[0])
	}
	if err != nil {
		sched.Close()
		tb.Fatal(err)
	}
	return srv, sched, httptest.NewRequest(http.MethodGet, "/v1/studies/"+fps[0], nil)
}

func BenchmarkServerGetStudy(b *testing.B) {
	srv, sched, req := newBenchServer(b)
	defer sched.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET cached study: %d %s", rec.Code, rec.Body.String())
		}
	}
}
