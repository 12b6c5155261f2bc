package grid

// The dispatch-retry backoff and the durable task journal: retries wait
// out a capped, exponentially growing, deterministically jittered window
// instead of rehashing instantly, workers back off a dead coordinator and
// re-announce on its first answer, and a WAL-backed coordinator's
// /v1/grid/tasks journal survives a restart.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"relperf"
	"relperf/internal/report"
	"relperf/internal/wal"
)

func TestRetryDelayDeterministicCappedDoubling(t *testing.T) {
	cfg := Config{Seed: 7, RetryBase: 100 * time.Millisecond, RetryMax: 400 * time.Millisecond}
	c1, c2 := New(cfg), New(cfg)
	const fp = "00112233445566778899aabbccddeeff"
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := c1.retryDelay(fp, attempt)
		if d2 := c2.retryDelay(fp, attempt); d2 != d1 {
			t.Fatalf("attempt %d: equal-keyed coordinators disagree: %s vs %s", attempt, d1, d2)
		}
		window := cfg.RetryBase << (attempt - 1)
		if window > cfg.RetryMax {
			window = cfg.RetryMax
		}
		if d1 < window/2 || d1 > window {
			t.Fatalf("attempt %d: delay %s outside [%s, %s]", attempt, d1, window/2, window)
		}
	}
	// Different studies draw different jitter under the same schedule.
	if c1.retryDelay(fp, 1) == c1.retryDelay("ffeeddccbbaa99887766554433221100", 1) {
		t.Fatal("two studies share the exact jitter draw (suspicious mixing)")
	}
	// A different seed draws a different schedule.
	c3 := New(Config{Seed: 8, RetryBase: cfg.RetryBase, RetryMax: cfg.RetryMax})
	same := 0
	for attempt := 1; attempt <= 6; attempt++ {
		if c3.retryDelay(fp, attempt) == c1.retryDelay(fp, attempt) {
			same++
		}
	}
	if same == 6 {
		t.Fatal("seed does not key the jitter")
	}
}

// TestDispatchBacksOffBetweenAttempts: every reassignment waits out
// exactly the deterministic retryDelay schedule, and a context cancelled
// during the backoff records a cancelled task instead of burning the
// remaining attempts.
func TestDispatchBacksOffBetweenAttempts(t *testing.T) {
	const seed = 7
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()

	coord := New(Config{Seed: seed, MaxAttempts: 3, RetryBase: 10 * time.Millisecond, RetryMax: 40 * time.Millisecond, Logf: t.Logf})
	var slept []time.Duration
	coord.sleep = func(ctx context.Context, d time.Duration) { slept = append(slept, d) }
	for i := 0; i < 3; i++ {
		if err := coord.Registry().Heartbeat(WorkerInfo{ID: string(rune('a' + i)), URL: failing.URL, Capacity: 1, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}

	specs := gridSpecs(t)
	cfg, err := specs[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	_, fp, err := relperf.NewKeyedStudy(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	studySeed, err := relperf.StudySeed(seed, fp)
	if err != nil {
		t.Fatal(err)
	}
	task := relperf.GridTask{Fingerprint: fp, Seed: studySeed, Spec: []byte(`{"workload":"tableI","loop_n":2,"measurements":6,"reps":10}`)}

	if _, err := coord.Dispatch(context.Background(), task); err == nil {
		t.Fatal("dispatch against all-failing workers succeeded")
	}
	// 3 attempts → backoffs before attempts 2 and 3, on the exact schedule.
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (%v)", len(slept), slept)
	}
	for i, d := range slept {
		if want := coord.retryDelay(fp, i+1); d != want {
			t.Fatalf("backoff %d = %s, want %s", i, d, want)
		}
	}

	// Cancellation during a backoff is a cancelled task, not a fallback.
	ctx, cancel := context.WithCancel(context.Background())
	coord2 := New(Config{Seed: seed, MaxAttempts: 3, RetryBase: 10 * time.Millisecond, RetryMax: 40 * time.Millisecond})
	coord2.sleep = func(ctx context.Context, d time.Duration) { cancel() }
	coord2.Registry().Heartbeat(WorkerInfo{ID: "w", URL: failing.URL, Capacity: 1, Seed: seed})
	if _, err := coord2.Dispatch(ctx, task); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled dispatch = %v, want context.Canceled", err)
	}
	coord2.mu.Lock()
	outcome := coord2.journal[0].Outcome
	coord2.mu.Unlock()
	if outcome != "cancelled" {
		t.Fatalf("journal outcome %q, want cancelled", outcome)
	}
}

func TestHeartbeatDelaySchedule(t *testing.T) {
	const interval = 200 * time.Millisecond
	key := idHash("w0")
	if d := heartbeatDelay(interval, 0, key); d != interval {
		t.Fatalf("healthy delay = %s, want %s", d, interval)
	}
	for failures := 1; failures <= 12; failures++ {
		window := interval
		for i := 0; i < failures && window < heartbeatMaxBackoff; i++ {
			window *= 2
		}
		if window > heartbeatMaxBackoff {
			window = heartbeatMaxBackoff
		}
		d := heartbeatDelay(interval, failures, key)
		if d < window/2 || d > window {
			t.Fatalf("delay at %d failures = %s, outside [%s, %s]", failures, d, window/2, window)
		}
		if d2 := heartbeatDelay(interval, failures, key); d2 != d {
			t.Fatalf("jitter is not deterministic at %d failures: %s vs %s", failures, d, d2)
		}
	}
	// Two workers backing off from the same outage draw different delays —
	// the anti-thundering-herd property the jitter exists for.
	other := idHash("w1")
	same := 0
	for failures := 1; failures <= 8; failures++ {
		if heartbeatDelay(interval, failures, other) == heartbeatDelay(interval, failures, key) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("worker identity does not key the heartbeat jitter")
	}
	// Recovery resets instantly: failures goes back to 0, so does the delay.
	if d := heartbeatDelay(interval, 0, key); d != interval {
		t.Fatalf("post-recovery delay = %s, want %s", d, interval)
	}
}

// TestRunHeartbeatsRecoversAfterOutage: a worker heartbeating a
// coordinator that starts dead re-announces itself once the coordinator
// answers, and stays registered afterwards — the outage costs backoff
// windows, not an operator action.
func TestRunHeartbeatsRecoversAfterOutage(t *testing.T) {
	const seed = 7
	coord := New(Config{Seed: seed, TTL: 600 * time.Millisecond})
	var up atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		coord.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A fixed 100ms cadence (not adaptive) keeps the test fast: the
		// point here is the outage backoff and the recovery reset, and
		// the adaptive path has its own test.
		RunHeartbeats(ctx, nil, ts.URL, WorkerInfo{ID: "w0", URL: "http://w0", Capacity: 1, Seed: seed}, 100*time.Millisecond, t.Logf)
	}()

	// Let a few beats fail, then bring the coordinator up.
	time.Sleep(300 * time.Millisecond)
	if n := len(coord.Registry().Alive()); n != 0 {
		t.Fatalf("%d workers registered while the coordinator was down", n)
	}
	up.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for len(coord.Registry().Alive()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never re-announced after the outage")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And it stays registered at the healthy cadence (TTL 600ms → beats
	// every ~200ms; surviving a full second proves the cadence reset).
	hold := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(hold) {
		if len(coord.Registry().Alive()) != 1 {
			t.Fatal("worker expired after recovery (cadence did not reset)")
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	<-done
}

// TestTaskJournalSurvivesRestart: a WAL-backed coordinator's dispatch
// journal is rebuilt from the recovered task records, so operators keep
// their audit trail across a coordinator restart.
func TestTaskJournalSurvivesRestart(t *testing.T) {
	const seed = 7
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	log1, recs, err := wal.Open(walPath, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(recs))
	}
	coord1 := New(Config{Seed: seed, Journal: log1, Logf: t.Logf})

	specs := gridSpecs(t)
	cfg, err := specs[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	_, fp, err := relperf.NewKeyedStudy(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	studySeed, err := relperf.StudySeed(seed, fp)
	if err != nil {
		t.Fatal(err)
	}
	task := relperf.GridTask{Fingerprint: fp, Seed: studySeed, Spec: []byte(`{"workload":"tableI","loop_n":2,"measurements":6,"reps":10}`)}
	// No workers → instant fallback, one journaled record.
	if _, err := coord1.Dispatch(context.Background(), task); err == nil {
		t.Fatal("dispatch with no workers succeeded")
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	log2, recs, err := wal.Open(walPath, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	coord2 := New(Config{Seed: seed, Journal: log2, Logf: t.Logf})
	if n := coord2.RestoreJournal(recs); n != 1 {
		t.Fatalf("restored %d task records, want 1", n)
	}
	coord2.mu.Lock()
	defer coord2.mu.Unlock()
	if len(coord2.journal) != 1 {
		t.Fatalf("journal has %d records after restart, want 1", len(coord2.journal))
	}
	rec := coord2.journal[0]
	if rec.Outcome != "fallback" || rec.Attempts != 0 {
		t.Fatalf("restored record = %+v, want a 0-attempt fallback", rec)
	}
	got, err := report.UnmarshalTask(rec.Task)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != fp || got.Seed != studySeed {
		t.Fatalf("restored envelope names %s/%d, want %s/%d", got.Fingerprint, got.Seed, fp, studySeed)
	}
}
