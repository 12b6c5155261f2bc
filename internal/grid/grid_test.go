package grid

// The grid determinism contract, enforced in-process: a grid run of a
// suite is byte-identical to a single-node run at any worker count, when a
// worker dies mid-suite, and when a misconfigured worker must be refused —
// because the unit of distribution (fingerprint + derived seed + spec) is
// self-contained and every reply is verified before it can be merged. The
// process-level twin (cmd/relperfd's grid e2e) covers the same contract
// through real processes and SIGKILL.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relperf"
	"relperf/internal/fleet"
	"relperf/internal/report"
)

const gridSuite = `{"studies":[
	{"workload":"tableI","loop_n":2,"measurements":6,"reps":10},
	{"workload":"tableI","loop_n":3,"measurements":6,"reps":10},
	{"workload":"fig1","measurements":6,"reps":10}
]}`

func gridSpecs(t *testing.T) []fleet.StudySpec {
	t.Helper()
	req, err := fleet.DecodeSuiteRequest(strings.NewReader(gridSuite))
	if err != nil {
		t.Fatal(err)
	}
	return req.Studies
}

// singleNodeResults runs the suite on a plain local scheduler — the golden
// the grid runs must match byte for byte.
func singleNodeResults(t *testing.T, seed uint64) map[string][]byte {
	t.Helper()
	sched := fleet.New(fleet.Options{Workers: 2, Seed: seed})
	defer sched.Close()
	fps, err := sched.SubmitSpecs(gridSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(fps))
	for _, fp := range fps {
		blob, err := sched.Result(context.Background(), fp)
		if err != nil {
			t.Fatal(err)
		}
		out[fp] = blob
	}
	return out
}

// newWorkerNode spins up one in-process relperfd worker: a fleet scheduler
// behind the real HTTP server.
func newWorkerNode(t *testing.T, seed uint64) *httptest.Server {
	t.Helper()
	sched := fleet.New(fleet.Options{Workers: 2, Seed: seed})
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(fleet.NewServer(sched))
	t.Cleanup(ts.Close)
	return ts
}

// gridRun executes the suite through a coordinator-dispatching scheduler
// and returns every study's bytes.
func gridRun(t *testing.T, seed uint64, coord *Coordinator) map[string][]byte {
	t.Helper()
	sched := fleet.New(fleet.Options{Workers: 2, Seed: seed, Dispatch: coord.Dispatch})
	defer sched.Close()
	fps, err := sched.SubmitSpecs(gridSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(fps))
	for _, fp := range fps {
		blob, err := sched.Result(context.Background(), fp)
		if err != nil {
			t.Fatal(err)
		}
		out[fp] = blob
	}
	return out
}

func assertIdentical(t *testing.T, got, want map[string][]byte, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d studies, want %d", label, len(got), len(want))
	}
	for fp, blob := range want {
		if !bytes.Equal(got[fp], blob) {
			t.Fatalf("%s: study %s bytes differ from the single-node run", label, fp)
		}
	}
}

// TestGridByteIdentityAnyWorkerCount: the tentpole property. The same
// suite, run through coordinators with 0, 1, 2 and 3 registered workers,
// serves bytes identical to the single-node golden — 0 workers exercising
// the pure local-fallback path, the rest exercising remote dispatch.
func TestGridByteIdentityAnyWorkerCount(t *testing.T) {
	const seed = 7
	want := singleNodeResults(t, seed)

	for _, workers := range []int{0, 1, 2, 3} {
		coord := New(Config{Seed: seed, Logf: t.Logf})
		for i := 0; i < workers; i++ {
			ts := newWorkerNode(t, seed)
			if err := coord.Registry().Heartbeat(WorkerInfo{ID: fmt.Sprintf("w%d", i), URL: ts.URL, Capacity: 2, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		got := gridRun(t, seed, coord)
		assertIdentical(t, got, want, fmt.Sprintf("workers=%d", workers))

		stats := coord.Stats()
		if workers == 0 {
			if stats.Remote != 0 || stats.Fallbacks != uint64(len(want)) {
				t.Fatalf("workers=0 stats = %+v, want pure fallback", stats)
			}
		} else {
			if stats.Remote != uint64(len(want)) || stats.Fallbacks != 0 || stats.Retries != 0 {
				t.Fatalf("workers=%d stats = %+v, want pure remote", workers, stats)
			}
		}
	}
}

// dyingWorker accepts study submissions but kills the connection of every
// result-stream request — a worker that takes work and then dies
// mid-computation, as seen from the coordinator.
type dyingWorker struct {
	inner http.Handler
	kills atomic.Int32
}

func (d *dyingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/studies/") {
		d.kills.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	d.inner.ServeHTTP(w, r)
}

// TestGridByteIdentityUnderWorkerDeath: one of two workers dies on every
// result stream. Studies assigned to it are dropped, reassigned by rehash
// to the healthy worker, and the suite's bytes still match the single-node
// golden — no fallback to local execution needed while a healthy worker
// remains.
func TestGridByteIdentityUnderWorkerDeath(t *testing.T) {
	const seed = 7
	want := singleNodeResults(t, seed)

	coord := New(Config{Seed: seed, Logf: t.Logf})
	healthy := newWorkerNode(t, seed)

	dyingSched := fleet.New(fleet.Options{Workers: 2, Seed: seed})
	t.Cleanup(dyingSched.Close)
	dying := &dyingWorker{inner: fleet.NewServer(dyingSched)}
	dyingTS := httptest.NewServer(dying)
	t.Cleanup(dyingTS.Close)

	coord.Registry().Heartbeat(WorkerInfo{ID: "healthy", URL: healthy.URL, Capacity: 2, Seed: seed})
	coord.Registry().Heartbeat(WorkerInfo{ID: "dying", URL: dyingTS.URL, Capacity: 2, Seed: seed})

	got := gridRun(t, seed, coord)
	assertIdentical(t, got, want, "worker death")

	stats := coord.Stats()
	if dying.kills.Load() == 0 || stats.Retries == 0 {
		t.Fatalf("death was never injected: kills=%d stats=%+v", dying.kills.Load(), stats)
	}
	if stats.Fallbacks != 0 {
		t.Fatalf("fell back to local with a healthy worker available: %+v", stats)
	}
	if stats.Remote != uint64(len(want)) {
		t.Fatalf("remote = %d, want %d", stats.Remote, len(want))
	}
	// The dying worker stays registered — quarantine holds flaky workers
	// out of rotation instead of forgetting them — but its failure streak
	// is on the record and, with three studies failed against it, it is
	// quarantined out of dispatch.
	st := stateOf(t, coord.Registry(), "dying")
	if st.Failures == 0 {
		t.Fatalf("dying worker carries no failure record: %+v", st)
	}
	if st.Failures >= DefaultQuarantineThreshold && st.State != StateQuarantined {
		t.Fatalf("dying worker past threshold but not quarantined: %+v", st)
	}
}

// TestGridMisKeyedWorkerRefused: a worker running a different suite seed
// slips into the registry (bypassing the heartbeat guard); dispatch
// detects the mismatch from its submit reply, refuses its results, and the
// suite falls back to bytes identical to the single-node run. Determinism
// survives misconfiguration.
func TestGridMisKeyedWorkerRefused(t *testing.T) {
	const seed = 7
	want := singleNodeResults(t, seed)

	coord := New(Config{Seed: seed, Logf: t.Logf})
	wrongSeed := newWorkerNode(t, seed+1)
	coord.Registry().Heartbeat(WorkerInfo{ID: "mis-keyed", URL: wrongSeed.URL, Capacity: 2, Seed: seed})

	got := gridRun(t, seed, coord)
	assertIdentical(t, got, want, "mis-keyed worker")
	stats := coord.Stats()
	if stats.Remote != 0 || stats.Fallbacks != uint64(len(want)) {
		t.Fatalf("stats = %+v, want every study refused and run locally", stats)
	}
}

// TestGridDispatchSeedGuard: an envelope whose derived seed does not match
// the coordinator's derivation is refused outright.
func TestGridDispatchSeedGuard(t *testing.T) {
	coord := New(Config{Seed: 7})
	fp := strings.Repeat("ab", 16)
	_, err := coord.Dispatch(context.Background(), relperf.GridTask{Fingerprint: fp, Seed: 12345, Spec: []byte(`{}`)})
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunHeartbeatsAdaptsToCoordinatorTTL: a worker heartbeating a
// coordinator whose TTL is far below DefaultTTL must adapt its interval
// off the heartbeat ack and stay registered — at the default interval
// (DefaultTTL/3 = 5s) it would expire from a 600ms registry within one
// beat.
func TestRunHeartbeatsAdaptsToCoordinatorTTL(t *testing.T) {
	const seed = 7
	coord := New(Config{Seed: seed, TTL: 600 * time.Millisecond})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunHeartbeats(ctx, nil, ts.URL, WorkerInfo{ID: "w0", URL: "http://w0", Capacity: 1, Seed: seed}, 0, t.Logf)
	}()

	// Wait for the first heartbeat to land...
	regDeadline := time.Now().Add(5 * time.Second)
	for len(coord.Registry().Alive()) == 0 {
		if time.Now().After(regDeadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...then, across two full TTL windows, the worker must never expire.
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if len(coord.Registry().Alive()) != 1 {
			t.Fatal("worker expired despite adaptive heartbeats")
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	<-done
}

// TestCoordinatorHandlers covers the /v1/grid/* HTTP surface: heartbeats
// register (and are refused on seed mismatch or garbage), the worker
// listing reports registry and dispatch state, and the task journal serves
// the dispatched envelopes.
func TestCoordinatorHandlers(t *testing.T) {
	const seed = 7
	coord := New(Config{Seed: seed, Logf: t.Logf})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/grid/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	worker := newWorkerNode(t, seed)
	code, body := post(fmt.Sprintf(`{"id":"w0","url":%q,"capacity":2,"seed":%d}`, worker.URL, seed))
	if code != http.StatusOK || !bytes.Contains(body, []byte("ttl_ms")) {
		t.Fatalf("heartbeat: %d %s", code, body)
	}
	if code, body = post(fmt.Sprintf(`{"id":"w1","url":"http://x","capacity":2,"seed":%d}`, seed+1)); code != http.StatusConflict {
		t.Fatalf("mis-keyed heartbeat: %d %s", code, body)
	}
	if code, _ = post(`{"id":"w2","url":"http://x","bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("garbage heartbeat: %d", code)
	}
	if code, _ = post(fmt.Sprintf(`{"url":"http://x","seed":%d}`, seed)); code != http.StatusBadRequest {
		t.Fatalf("id-less heartbeat: %d", code)
	}

	// One real dispatch so the listing and journal have content.
	sched := fleet.New(fleet.Options{Workers: 2, Seed: seed, Dispatch: coord.Dispatch})
	defer sched.Close()
	fps, err := sched.SubmitSpecs(gridSpecs(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Result(context.Background(), fps[0]); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/grid/workers")
	if err != nil {
		t.Fatal(err)
	}
	var wr workersResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(wr.Workers) != 1 || wr.Workers[0].ID != "w0" || wr.Dispatch.Remote != 1 {
		t.Fatalf("workers listing = %+v", wr)
	}

	resp, err = http.Get(ts.URL + "/v1/grid/tasks")
	if err != nil {
		t.Fatal(err)
	}
	var tr tasksResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tr.Tasks) != 1 || tr.Tasks[0].Outcome != "remote" || tr.Tasks[0].Worker != "w0" {
		t.Fatalf("task journal = %+v", tr)
	}
	// The journal entry is a valid relperf/grid-task/v1 envelope whose
	// fingerprint matches the dispatched study.
	task, err := report.UnmarshalTask(tr.Tasks[0].Task)
	if err != nil {
		t.Fatal(err)
	}
	if task.Fingerprint != fps[0] {
		t.Fatalf("journal task fingerprint %s, want %s", task.Fingerprint, fps[0])
	}
}
