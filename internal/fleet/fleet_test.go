package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"relperf"
	"relperf/internal/sim"
)

// testProgram is a cheap two-task program so fleet tests stay fast.
func testProgram() *sim.Program {
	return &sim.Program{
		Name: "fleet-test",
		Tasks: []sim.Task{
			{Name: "L1", Flops: 5e8, Launches: 10, HostInBytes: 1e6, HostOutBytes: 1e6, Transfers: 3, EdgeEff: 1, AccelEff: 0.01},
			{Name: "L2", Flops: 2e9, Launches: 10, HostInBytes: 5e6, HostOutBytes: 1e6, Transfers: 3, EdgeEff: 1, AccelEff: 0.05},
		},
	}
}

func testConfig() relperf.StudyConfig {
	return relperf.StudyConfig{Program: testProgram(), N: 8, Reps: 12}
}

// testSpec is the declarative wire form of testProgram with n measurements
// per algorithm — the shape SubmitSpecs takes.
func testSpec(t *testing.T, n int) StudySpec {
	t.Helper()
	spec, err := relperf.ParseStudySpec([]byte(fmt.Sprintf(`{"program":{"name":"fleet-test","tasks":[
		{"name":"L1","kernel":"raw","flops":5e8,"launches":10,"host_in_bytes":1e6,"host_out_bytes":1e6,"transfers":3,"accel_eff":0.01},
		{"name":"L2","kernel":"raw","flops":2e9,"launches":10,"host_in_bytes":5e6,"host_out_bytes":1e6,"transfers":3,"accel_eff":0.05}]},
		"measurements":%d,"reps":12}`, n)))
	if err != nil {
		t.Fatal(err)
	}
	return *spec
}

// TestSchedulerCacheHit: the second request for a config is served from the
// store without re-running — the compute counter stays at 1 and the bytes
// are the identical stored slice contents.
func TestSchedulerCacheHit(t *testing.T) {
	s := New(Options{Workers: 2, Seed: 5})
	defer s.Close()
	_, first, err := s.Study(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Computes(); got != 1 {
		t.Fatalf("computes = %d after first request", got)
	}
	_, second, err := s.Study(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Computes(); got != 1 {
		t.Fatalf("computes = %d after cache hit, want 1 (no recomputation)", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit returned different bytes")
	}
}

// TestSchedulerSingleFlight: concurrent requests for one uncached config
// coalesce onto exactly one computation.
func TestSchedulerSingleFlight(t *testing.T) {
	s := New(Options{Workers: 2, Seed: 5})
	defer s.Close()
	const callers = 8
	blobs := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, blob, err := s.Study(context.Background(), testConfig())
			if err != nil {
				t.Error(err)
				return
			}
			blobs[i] = blob
		}(i)
	}
	wg.Wait()
	if got := s.Computes(); got != 1 {
		t.Fatalf("computes = %d for %d concurrent requests, want 1", got, callers)
	}
	for i := 1; i < callers; i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Fatalf("caller %d received different bytes", i)
		}
	}
}

// TestSchedulerWorkerDeterminism: schedulers differing only in budget
// width produce byte-identical results for equal seeds.
func TestSchedulerWorkerDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		s := New(Options{Workers: workers, Seed: 77})
		defer s.Close()
		_, blob, err := s.Study(context.Background(), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("results differ between Workers=1 and Workers=8")
	}
}

func TestSchedulerSubmitAndResult(t *testing.T) {
	s := New(Options{Workers: 2, Seed: 3})
	defer s.Close()
	specA, specB := testSpec(t, 8), testSpec(t, 10)
	fps, err := s.SubmitSpecs([]StudySpec{specA, specB, specA})
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 3 || fps[0] != fps[2] || fps[0] == fps[1] {
		t.Fatalf("fingerprints = %v", fps)
	}
	for _, fp := range fps {
		if _, err := s.Result(context.Background(), fp); err != nil {
			t.Fatalf("result %s: %v", fp, err)
		}
	}
	if got := s.Computes(); got != 2 {
		t.Fatalf("computes = %d for a suite with one duplicate, want 2", got)
	}
	if _, err := s.Result(context.Background(), "ffffffffffffffffffffffffffffffff"); !errors.Is(err, ErrUnknownStudy) {
		t.Fatalf("unknown fingerprint: err = %v", err)
	}
}

// TestSchedulerRestartFromSnapshot: a new scheduler loading the old
// store's snapshot serves the identical bytes without recomputing.
func TestSchedulerRestartFromSnapshot(t *testing.T) {
	s1 := New(Options{Workers: 2, Seed: 9})
	fp, want, err := s1.Study(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s1.Store().WriteSnapshot(&snap, s1.Seed()); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	store := NewStore(0)
	if _, err := store.LoadSnapshot(bytes.NewReader(snap.Bytes()), 9); err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 4, Seed: 9, Store: store})
	defer s2.Close()
	got, err := s2.Result(context.Background(), fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("restored result differs from the original bytes")
	}
	if s2.Computes() != 0 {
		t.Fatalf("restart recomputed %d studies", s2.Computes())
	}
}

// TestSchedulerRecomputesEvictedStudy: a submitted study whose result was
// LRU-evicted is recomputed from the retained study on the next Result —
// not turned into a permanent 404 — and the recomputed bytes are identical
// (determinism makes eviction invisible to clients).
func TestSchedulerRecomputesEvictedStudy(t *testing.T) {
	s := New(Options{Workers: 2, Seed: 5, Store: NewStore(1)})
	defer s.Close()
	fps, err := s.SubmitSpecs([]StudySpec{testSpec(t, 8), testSpec(t, 10)})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Result(context.Background(), fps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(context.Background(), fps[1]); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: at most one of the two survives, so by now at least one
	// result has been evicted at least once, yet both must stay servable.
	again, err := s.Result(context.Background(), fps[0])
	if err != nil {
		t.Fatalf("evicted study became unservable: %v", err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("recomputed result differs from the original bytes")
	}
}

func TestSchedulerSubscribe(t *testing.T) {
	s := New(Options{Workers: 2, Seed: 1})
	defer s.Close()
	ch, cancel := s.Subscribe(4)
	defer cancel()
	fp, _, err := s.Study(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Phase events arrive in order: computing first, then done.
	ev := <-ch
	if ev.Fingerprint != fp || ev.Phase != PhaseComputing || ev.Result != nil || ev.Err != nil {
		t.Fatalf("first event = %+v, want computing phase", ev)
	}
	ev = <-ch
	if ev.Fingerprint != fp || ev.Phase != PhaseDone || ev.Err != nil || ev.Result == nil {
		t.Fatalf("event = %+v", ev)
	}
	if _, err := ev.Result.ProfileByName(ev.Result.Profiles[0].Name); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerClose(t *testing.T) {
	s := New(Options{Workers: 2, Seed: 1})
	s.Close()
	if _, err := s.SubmitSpecs([]StudySpec{testSpec(t, 8)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, _, err := s.Study(context.Background(), testConfig()); !errors.Is(err, ErrClosed) {
		t.Fatalf("study after close: %v", err)
	}
}

// TestPublishDropsSlowSubscriber: a subscriber whose buffer is full when an
// event arrives is disconnected (channel closed, drop counted) instead of
// stalling publish or silently losing the event; other subscribers are
// unaffected. This is the regression test for the SSE slow-consumer
// contract — publish must never block on a subscriber.
func TestPublishDropsSlowSubscriber(t *testing.T) {
	s := New(Options{Workers: 1, Seed: 1})
	defer s.Close()
	slow, slowCancel := s.Subscribe(1)
	defer slowCancel()
	fast, fastCancel := s.Subscribe(4)
	defer fastCancel()

	// Nobody drains slow: the first publish fills its one-slot buffer, the
	// second finds it full and must disconnect it — immediately, not ever
	// blocking.
	s.publish(StudyEvent{Fingerprint: "fp", Phase: PhaseComputing})
	s.publish(StudyEvent{Fingerprint: "fp", Phase: PhaseDone})

	if ev := <-slow; ev.Phase != PhaseComputing {
		t.Fatalf("slow subscriber's buffered event = %+v, want computing", ev)
	}
	if _, ok := <-slow; ok {
		t.Fatal("slow subscriber channel still open after overflow; want disconnect")
	}
	for _, want := range []Phase{PhaseComputing, PhaseDone} {
		if ev := <-fast; ev.Phase != want {
			t.Fatalf("fast subscriber event = %+v, want %s", ev, want)
		}
	}
	if got := s.subsDropped.Value(); got != 1 {
		t.Fatalf("subsDropped = %d, want 1", got)
	}

	// The dropped subscriber is gone from the set; a publish after the
	// disconnect reaches only the survivors and a late cancel of the
	// dropped subscription is a harmless no-op.
	s.publish(StudyEvent{Fingerprint: "fp2", Phase: PhaseComputing})
	if ev := <-fast; ev.Fingerprint != "fp2" {
		t.Fatalf("post-drop event = %+v", ev)
	}
	slowCancel()
	if got := s.subsDropped.Value(); got != 1 {
		t.Fatalf("subsDropped after cancel = %d, want still 1", got)
	}
}
