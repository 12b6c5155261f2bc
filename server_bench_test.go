// Serving-path benchmarks: BenchmarkServerGetStudy measures a cached
// GET /v1/studies/{fp} through the full daemon handler stack — mux routing,
// obs middleware, store lookup, response write — without a network socket,
// so the number tracks handler overhead rather than loopback TCP. The
// emitter in benchjson_test.go publishes it as serve_ns_per_op in
// BENCH_engine.json, where `make bench-check` holds it under a committed
// ceiling: the observability middleware must stay invisible on the read
// path. BenchmarkServerIndexPage and BenchmarkServerStudySummary time the
// two dashboard reads the same way; their records are tracked, not gated.
package relperf_test

import (
	"context"
	"fmt"
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

// BenchmarkServerStudySummary measures a cached GET /v1/studies/{fp}/summary:
// after the first request the store serves the encoded body it kept.
func BenchmarkServerStudySummary(b *testing.B) {
	srv, sched, req := newBenchServer(b)
	defer sched.Close()
	req = httptest.NewRequest(http.MethodGet, req.URL.Path+"/summary", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET summary: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// benchServerIndexPage measures one GET /v1/studies page of 100 entries
// from the middle of a store that knows n fingerprints. The results are
// placeholders merged straight into the store — an index page never reads
// them — so setting up 10⁵ entries costs no computation.
func benchServerIndexPage(n int) func(b *testing.B) {
	return func(b *testing.B) {
		sched := fleet.New(fleet.Options{Workers: 1, Seed: 1})
		defer sched.Close()
		srv := fleet.NewServer(sched)
		for i := 0; i < n; i++ {
			fp := fmt.Sprintf("%016x%016x", uint64(i)*0x9e3779b97f4a7c15, i)
			if err := sched.Store().Merge(fp, []byte("{}")); err != nil {
				b.Fatal(err)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/studies?limit=100&cursor=8", nil)
		srv.ServeHTTP(httptest.NewRecorder(), req) // settle the index once, untimed
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("GET index page: %d %s", rec.Code, rec.Body.String())
			}
		}
	}
}

// BenchmarkServerIndexPage runs the index page at 10⁴ and 10⁵ entries: the
// per-page cost must not grow with the store.
func BenchmarkServerIndexPage(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run("n="+itoa(n), benchServerIndexPage(n))
	}
}
