package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"relperf"
)

// testSpec is a cheap two-task declarative study with n measurements per
// algorithm, so fleet tests stay fast.
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

// submitAndWait submits one spec and blocks until its result is available:
// the fingerprint and the encoded result.
func submitAndWait(t *testing.T, s *Scheduler, spec StudySpec) (string, []byte) {
	t.Helper()
	fps, err := s.SubmitSpecs([]StudySpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Result(context.Background(), fps[0])
	if err != nil {
		t.Fatal(err)
	}
	return fps[0], blob
}

// TestSchedulerCacheHit: the second request for a config is served from the
// store without re-running — the compute counter stays at 1 and the bytes
// are the identical stored slice contents.
func TestSchedulerCacheHit(t *testing.T) {
	s := New(Options{Workers: 2, Seed: 5})
	defer s.Close()
	_, first := submitAndWait(t, s, testSpec(t, 8))
	if got := s.Computes(); got != 1 {
		t.Fatalf("computes = %d after first request", got)
	}
	_, second := submitAndWait(t, s, testSpec(t, 8))
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
	spec := testSpec(t, 8)
	blobs := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fps, err := s.SubmitSpecs([]StudySpec{spec})
			if err != nil {
				t.Error(err)
				return
			}
			blob, err := s.Result(context.Background(), fps[0])
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
		_, blob := submitAndWait(t, s, testSpec(t, 8))
		return blob
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("results differ between Workers=1 and Workers=8")
	}
}

// suiteSpecs is a three-study suite over the engine's paths: a plain exact
// study, a matrix study and a study with warmup runs.
func suiteSpecs(t *testing.T) []StudySpec {
	warm := testSpec(t, 10)
	warm.Warmup = 1
	return []StudySpec{
		testSpec(t, 10),
		{Workload: "tableI", LoopN: 2, Measurements: 8, Reps: 16, Matrix: true},
		warm,
	}
}

// TestSuiteWorkerDeterminism is the fleet acceptance property: a suite run
// at Workers=1 and Workers=8 yields byte-identical JSON wire documents for
// every study.
func TestSuiteWorkerDeterminism(t *testing.T) {
	encodeAll := func(workers int) map[string][]byte {
		s := New(Options{Workers: workers, Seed: 42})
		defer s.Close()
		fps, err := s.SubmitSpecs(suiteSpecs(t))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(fps))
		for _, fp := range fps {
			blob, err := s.Result(context.Background(), fp)
			if err != nil {
				t.Fatal(err)
			}
			out[fp] = blob
		}
		return out
	}
	ref := encodeAll(1)
	got := encodeAll(8)
	if len(ref) != 3 || len(ref) != len(got) {
		t.Fatalf("study counts: %d vs %d, want 3", len(ref), len(got))
	}
	for fp, blob := range ref {
		if !bytes.Equal(blob, got[fp]) {
			t.Fatalf("study %s differs between Workers=1 and Workers=8", fp)
		}
	}
}

// TestSuiteDedupeAndCompositionInvariance: a duplicate spec computes once,
// and a study's result does not depend on what else is in the suite — it
// equals the standalone study run under the derived seed.
func TestSuiteDedupeAndCompositionInvariance(t *testing.T) {
	const seed = 7
	s := New(Options{Workers: 2, Seed: seed})
	defer s.Close()
	events, cancel := s.Subscribe(32)
	defer cancel()
	specs := suiteSpecs(t)
	specs = append(specs, specs[0]) // duplicate of the first study
	fps, err := s.SubmitSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 4 || fps[0] != fps[3] || fps[0] == fps[1] || fps[0] == fps[2] || fps[1] == fps[2] {
		t.Fatalf("fingerprints = %v, want the duplicate mapped to the first", fps)
	}
	results := make(map[string][]byte, 3)
	for _, fp := range fps {
		blob, err := s.Result(context.Background(), fp)
		if err != nil {
			t.Fatal(err)
		}
		results[fp] = blob
	}
	if got := s.Computes(); got != 3 {
		t.Fatalf("computes = %d, want 3 after dedupe", got)
	}
	// Each study publishes exactly one done event, after its result lands.
	done := 0
	for done < 3 {
		select {
		case ev := <-events:
			if ev.Phase == PhaseDone {
				done++
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("saw %d done events, want 3", done)
		}
	}
	select {
	case ev := <-events:
		t.Fatalf("extra event after the suite completed: %+v", ev)
	default:
	}

	// Standalone reproduction of every study from (seed, fingerprint)
	// alone.
	for i, fp := range fps[:3] {
		cfg, err := specs[i].Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Seed, err = relperf.StudySeed(seed, fp); err != nil {
			t.Fatal(err)
		}
		study, err := relperf.NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		standalone, err := study.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := standalone.MarshalWire()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, results[fp]) {
			t.Fatalf("study %d: suite result differs from the standalone study under the derived seed", i)
		}
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
	fp, want := submitAndWait(t, s1, testSpec(t, 8))
	snap, _, err := s1.Store().SnapshotCut(s1.Seed())
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	store := NewStore(0)
	if _, err := store.LoadSnapshot(bytes.NewReader(snap), 9); err != nil {
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
// LRU-evicted is recomputed from the retained spec on the next Result —
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
	fp, _ := submitAndWait(t, s, testSpec(t, 8))
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
	// A spec retained before the scheduler starts: its result is
	// recomputable, so only the closed scheduler stands in the way.
	spec := testSpec(t, 8)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := relperf.Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(0)
	if err := store.PutSpec(fp, raw); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2, Seed: 1, Store: store})
	s.Close()
	if _, err := s.SubmitSpecs([]StudySpec{spec}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, err := s.Result(context.Background(), fp); !errors.Is(err, ErrClosed) {
		t.Fatalf("recompute after close: %v", err)
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

// TestSubmitSpecsRefusesInvalidUTF8: a Go-built spec can hold bytes that
// are not UTF-8, which the result encoder writes as the escape \ufffd and
// the canonical intake then refuses on restore. SubmitSpecs refuses such a
// spec in any string field, naming the field, before it retains or runs
// anything; the valid spec beside it in the suite is not started either.
func TestSubmitSpecsRefusesInvalidUTF8(t *testing.T) {
	const bad = "bad\xffname"
	cases := map[string]func(sp *StudySpec){
		"program.name":     func(sp *StudySpec) { sp.Program.Name = bad },
		"program.tasks[1]": func(sp *StudySpec) { sp.Program.Tasks[1].Name = bad },
		"workload":         func(sp *StudySpec) { sp.Program, sp.Workload = nil, bad },
		"comparator":       func(sp *StudySpec) { sp.Comparator = bad },
		"placements[0]":    func(sp *StudySpec) { sp.Placements = []string{bad} },
		"platform.edge": func(sp *StudySpec) {
			sp.Platform = &relperf.PlatformSpec{Edge: &relperf.DeviceSpec{Name: bad, PeakFlops: 1e9, MemBandwidth: 1e9}}
		},
		"platform.link": func(sp *StudySpec) {
			sp.Platform = &relperf.PlatformSpec{Link: &relperf.LinkSpec{Name: "l", Bandwidth: 1e9,
				Noise: &relperf.NoiseSpec{Kind: "shift", Shift: 1e-6, Base: &relperf.NoiseSpec{Kind: bad}}}}
		},
	}
	s := New(Options{Workers: 2, Seed: 5})
	defer s.Close()
	for field, corrupt := range cases {
		spec := testSpec(t, 8)
		corrupt(&spec)
		_, err := s.SubmitSpecs([]StudySpec{testSpec(t, 6), spec})
		if err == nil || !strings.Contains(err.Error(), "spec "+field+" is not valid UTF-8") {
			t.Fatalf("%s: SubmitSpecs error %v, want it to name the field", field, err)
		}
	}
	if st := s.store.Stats(); st.Specs != 0 || st.Entries != 0 || s.Computes() != 0 {
		t.Fatalf("refused suites left %d specs, %d results and %d computes", st.Specs, st.Entries, s.Computes())
	}
}
