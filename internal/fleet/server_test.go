package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relperf"
)

const suiteBody = `{"studies":[
	{"workload":"tableI","loop_n":2,"measurements":6,"reps":10},
	{"workload":"tableI","loop_n":2,"measurements":6,"reps":10,"matrix":true},
	{"workload":"tableI","loop_n":2,"measurements":6,"reps":10}
]}`

func newTestServer(t *testing.T, seed uint64, store *Store) (*Server, *Scheduler) {
	t.Helper()
	sched := New(Options{Workers: 2, Seed: seed, Store: store})
	t.Cleanup(sched.Close)
	return NewServer(sched), sched
}

func postSuite(t *testing.T, ts *httptest.Server, body string) suiteResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/suites", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/suites: %d %s", resp.StatusCode, b)
	}
	var sr suiteResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func getStudy(t *testing.T, ts *httptest.Server, fp string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/studies/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServerSuiteEndToEnd is the daemon acceptance path: POST a suite, GET
// each study's JSON result, verify the second GET is a cache hit serving
// identical bytes with no recomputation, and 404 for unknown fingerprints.
func TestServerSuiteEndToEnd(t *testing.T) {
	srv, sched := newTestServer(t, 11, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sr := postSuite(t, ts, suiteBody)
	if len(sr.Fingerprints) != 3 || sr.Fingerprints[0] != sr.Fingerprints[2] {
		t.Fatalf("fingerprints = %v", sr.Fingerprints)
	}
	if sr.Seed != 11 {
		t.Fatalf("seed = %d", sr.Seed)
	}

	blobs := map[string][]byte{}
	for _, fp := range sr.Fingerprints {
		code, body := getStudy(t, ts, fp)
		if code != http.StatusOK {
			t.Fatalf("GET study %s: %d %s", fp, code, body)
		}
		res, err := relperf.UnmarshalResultWire(bytes.TrimSuffix(body, []byte("\n")))
		if err != nil {
			t.Fatalf("served document invalid: %v", err)
		}
		if len(res.Profiles) == 0 {
			t.Fatal("served result has no decision profiles")
		}
		blobs[fp] = body
	}
	computed := sched.Computes()
	if computed != 2 {
		t.Fatalf("computes = %d for a 3-study suite with one duplicate", computed)
	}

	// Second round of GETs: pure cache hits, byte-identical, no new
	// computations.
	for fp, want := range blobs {
		code, body := getStudy(t, ts, fp)
		if code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("cache hit for %s differs (code %d)", fp, code)
		}
	}
	if sched.Computes() != computed {
		t.Fatalf("computes grew to %d on cache hits", sched.Computes())
	}

	if code, _ := getStudy(t, ts, "ffffffffffffffffffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: %d, want 404", code)
	}
}

// TestServerRestartFromSnapshot: a daemon restarted from its snapshot
// serves byte-identical results with zero recomputation.
func TestServerRestartFromSnapshot(t *testing.T) {
	srv1, sched1 := newTestServer(t, 23, nil)
	ts1 := httptest.NewServer(srv1)
	sr := postSuite(t, ts1, suiteBody)
	want := map[string][]byte{}
	for _, fp := range sr.Fingerprints {
		_, body := getStudy(t, ts1, fp)
		want[fp] = body
	}
	snap, _, err := sched1.Store().SnapshotCut(sched1.Seed())
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	sched1.Close()

	store := NewStore(0)
	if _, err := store.LoadSnapshot(bytes.NewReader(snap), 23); err != nil {
		t.Fatal(err)
	}
	srv2, sched2 := newTestServer(t, 23, store)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	for fp, wantBody := range want {
		code, body := getStudy(t, ts2, fp)
		if code != http.StatusOK || !bytes.Equal(body, wantBody) {
			t.Fatalf("restarted daemon serves different bytes for %s", fp)
		}
	}
	if sched2.Computes() != 0 {
		t.Fatalf("restarted daemon recomputed %d studies", sched2.Computes())
	}
}

func TestServerHealthz(t *testing.T) {
	srv, _ := newTestServer(t, 5, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Seed != 5 || h.Workers != 2 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestServerBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, 5, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, body := range []string{
		`{`,
		`{"studies":[]}`,
		`{"studies":[{"workload":"nope"}]}`,
		`{"studies":[{"workload":"tableI","bogus_field":1}]}`,
		`{"studies":[{"workload":"tableI","placements":["DXD"]}]}`,
		`{"studies":[{"workload":"tableI","comparator":"psychic"}]}`,
		`{"studies":[{"workload":"tableI","reps":-3}]}`,
		`{"studies":[{"workload":"tableI"}]} {"studies":[{"workload":"nope"}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/suites", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestStudySpecConfigDefaults(t *testing.T) {
	sp := StudySpec{Workload: "fig1", Comparator: "ks", Placements: []string{"DA", "AD"}}
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Program == nil || cfg.Platform == nil || len(cfg.Placements) != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := relperf.Fingerprint(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestStudyStreamLaggedConsumer drives the SSE stream through a
// slow-consumer disconnect: the stream's one-slot subscription (via
// WithStreamBuffer) is overflowed while the study is parked inside a gated
// dispatch hook, so the scheduler drops the stream's subscriber. The
// stream must report the gap with a "lagged" event and still deliver the
// authoritative result once the study completes — a dropped phase feed
// degrades the view, never the outcome.
func TestStudyStreamLaggedConsumer(t *testing.T) {
	gate := make(chan struct{})
	sched := New(Options{
		Workers: 1,
		Seed:    7,
		// The dispatch hook runs on the compute path before local
		// execution; parking it keeps the study in flight for exactly as
		// long as the test needs, with no timing assumptions.
		Dispatch: func(ctx context.Context, task relperf.GridTask) ([]byte, error) {
			<-gate
			return nil, errors.New("test grid declines; run locally")
		},
	})
	defer sched.Close()
	srv := NewServer(sched, WithStreamBuffer(1))

	fps, err := sched.SubmitSpecs([]StudySpec{{Workload: "tableI", LoopN: 2, Measurements: 6, Reps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	fp := fps[0]
	waitUntil(t, "study computing", func() bool { return sched.Computing(fp) })

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/studies/"+fp+"?wait=stream", nil)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		srv.handleStudyStream(rec, req, fp)
	}()

	subCount := func() int {
		sched.subMu.Lock()
		defer sched.subMu.Unlock()
		return len(sched.subs)
	}
	waitUntil(t, "stream subscribed", func() bool { return subCount() == 1 })

	// Publish unrelated events faster than the stream can drain them until
	// the scheduler disconnects it. Each iteration either buffers (at most
	// one slot) or drops the subscriber, so this terminates.
	for i := 0; subCount() > 0; i++ {
		if i > 1_000_000 {
			t.Fatal("stream subscriber was never dropped")
		}
		sched.publish(StudyEvent{Fingerprint: "other", Phase: PhaseComputing})
	}
	if sched.subsDropped.Value() == 0 {
		t.Fatal("drop counter not incremented")
	}

	close(gate) // dispatch declines, the study runs locally and completes
	<-streamDone

	body := rec.Body.String()
	computing := strings.Index(body, "event: computing")
	lagged := strings.Index(body, "event: lagged")
	result := strings.Index(body, "event: result")
	if computing < 0 || lagged < 0 || result < 0 {
		t.Fatalf("stream missing events (computing=%d lagged=%d result=%d):\n%s", computing, lagged, result, body)
	}
	if !(computing < lagged && lagged < result) {
		t.Fatalf("stream events out of order (computing=%d lagged=%d result=%d):\n%s", computing, lagged, result, body)
	}
}

// TestStudyStreamShutdownDrain: DrainStreams makes an open SSE stream end
// with a terminal "shutdown" event instead of hanging until the HTTP
// server's shutdown deadline cuts the connection — the drain path relperfd
// runs before http.Server.Shutdown.
func TestStudyStreamShutdownDrain(t *testing.T) {
	gate := make(chan struct{})
	sched := New(Options{
		Workers: 1,
		Seed:    7,
		// Park the study mid-compute so the stream is genuinely waiting on a
		// result when the drain arrives.
		Dispatch: func(ctx context.Context, task relperf.GridTask) ([]byte, error) {
			<-gate
			return nil, errors.New("test grid declines; run locally")
		},
	})
	defer sched.Close()
	defer close(gate)
	srv := NewServer(sched)

	fps, err := sched.SubmitSpecs([]StudySpec{{Workload: "tableI", LoopN: 2, Measurements: 6, Reps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	fp := fps[0]
	waitUntil(t, "study computing", func() bool { return sched.Computing(fp) })

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/studies/"+fp+"?wait=stream", nil)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		srv.handleStudyStream(rec, req, fp)
	}()
	waitUntil(t, "stream subscribed", func() bool {
		sched.subMu.Lock()
		defer sched.subMu.Unlock()
		return len(sched.subs) == 1
	})

	srv.DrainStreams()
	srv.DrainStreams() // idempotent
	select {
	case <-streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after DrainStreams")
	}

	body := rec.Body.String()
	if !strings.Contains(body, "event: shutdown") {
		t.Fatalf("drained stream missing shutdown event:\n%s", body)
	}
	if strings.Contains(body, "event: result") {
		t.Fatalf("drained stream should not carry a result (study is parked):\n%s", body)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
