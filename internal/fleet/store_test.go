package fleet

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"relperf/internal/wal"
)

// mustMerge stores a result through Merge, the store's only insert path.
func mustMerge(t *testing.T, s *Store, fp string, blob []byte) {
	t.Helper()
	if err := s.Merge(fp, blob); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2)
	mustMerge(t, s, "a", []byte(`{"v":1}`))
	mustMerge(t, s, "b", []byte(`{"v":2}`))
	if _, ok := s.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	mustMerge(t, s, "c", []byte(`{"v":3}`))
	if _, ok := s.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Fatalf("keys = %v", got)
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreUnboundedAndReplace(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 100; i++ {
		mustMerge(t, s, "k", []byte(`{"v":0}`))
	}
	mustMerge(t, s, "k2", []byte(`{"v":1}`))
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	// A stored result is never replaced: different bytes are a conflict
	// and the old bytes are still served.
	if err := s.Merge("k", []byte(`{"v":9}`)); !errors.Is(err, ErrMergeConflict) {
		t.Fatalf("replacing merge = %v, want ErrMergeConflict", err)
	}
	blob, _ := s.Get("k")
	if string(blob) != `{"v":0}` {
		t.Fatalf("conflicting merge replaced the stored bytes: %s", blob)
	}
}

// studyFixture is one computed study: its fingerprint, its retained spec
// and its canonical result bytes.
type studyFixture struct {
	fp         string
	spec, blob []byte
}

var (
	fixtureOnce    sync.Once
	fixtureStudies []studyFixture
	fixtureErr     error
)

// realStudies returns n (at most 6) small computed Table-I studies, real
// specs under their real fingerprints with real results, computed once per
// test binary. Every record a checkpoint restores is validated, so tests
// that persist a store persist these rather than made-up blobs.
func realStudies(t *testing.T, n int) []studyFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		sched := New(Options{Workers: 2, Seed: 11})
		defer sched.Close()
		var specs []StudySpec
		for m := 6; m < 12; m++ {
			specs = append(specs, StudySpec{Workload: "tableI", LoopN: 2, Measurements: m, Reps: 10})
		}
		fps, err := sched.SubmitSpecs(specs)
		if err != nil {
			fixtureErr = err
			return
		}
		for _, fp := range fps {
			blob, err := sched.Result(context.Background(), fp)
			if err != nil {
				fixtureErr = err
				return
			}
			spec, _ := sched.Store().Spec(fp)
			fixtureStudies = append(fixtureStudies, studyFixture{fp: fp, spec: spec, blob: blob})
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureStudies[:n]
}

// TestStoreSnapshotRoundTrip: blobs and recency order survive persistence
// byte-for-byte.
func TestStoreSnapshotRoundTrip(t *testing.T) {
	st := realStudies(t, 2)
	a, b := st[0].fp, st[1].fp
	s := NewStore(0)
	mustMerge(t, s, a, st[0].blob)
	mustMerge(t, s, b, st[1].blob)
	s.Get(a) // a becomes MRU

	snap, _, err := s.SnapshotCut(42)
	if err != nil {
		t.Fatal(err)
	}

	restored := NewStore(0)
	n, err := restored.LoadSnapshot(bytes.NewReader(snap), 42)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d entries, want 2", n)
	}
	for _, fp := range []string{a, b} {
		want, _ := s.Get(fp)
		got, ok := restored.Get(fp)
		if !ok || !bytes.Equal(want, got) {
			t.Fatalf("entry %s differs after restore: %s vs %s", fp, want, got)
		}
	}
	// Recency survived: b is LRU in both (ignore the Get calls above by
	// re-deriving from a fresh load).
	restored2 := NewStore(0)
	if _, err := restored2.LoadSnapshot(bytes.NewReader(snap), 42); err != nil {
		t.Fatal(err)
	}
	if got := restored2.Keys(); !reflect.DeepEqual(got, []string{a, b}) {
		t.Fatalf("restored recency order = %v", got)
	}
}

// TestStoreSnapshotLoadBounded: loading a big snapshot into a small store
// reports how many entries are actually servable, not how many the
// snapshot held.
func TestStoreSnapshotLoadBounded(t *testing.T) {
	st := realStudies(t, 5)
	src := NewStore(0)
	for _, x := range st {
		mustMerge(t, src, x.fp, x.blob)
	}
	snap, _, err := src.SnapshotCut(1)
	if err != nil {
		t.Fatal(err)
	}
	small := NewStore(2)
	n, err := small.LoadSnapshot(bytes.NewReader(snap), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("reported %d restored entries, want the 2 actually retained", n)
	}
	// The retained pair is the most recently used of the source.
	if got := small.Keys(); !reflect.DeepEqual(got, []string{st[4].fp, st[3].fp}) {
		t.Fatalf("retained keys = %v", got)
	}
}

// TestStoreSpecSnapshot: retained specs persist alongside result blobs,
// survive a snapshot round trip verbatim, are never LRU-evicted, and equal
// stores write byte-identical snapshots regardless of spec insertion order.
func TestStoreSpecSnapshot(t *testing.T) {
	st := realStudies(t, 2)
	a, b := st[0], st[1]
	s := NewStore(1)
	mustMerge(t, s, a.fp, a.blob)
	s.PutSpec(a.fp, a.spec)
	s.PutSpec(b.fp, b.spec)
	mustMerge(t, s, b.fp, b.blob) // evicts result a, not its spec
	if _, ok := s.Get(a.fp); ok {
		t.Fatal("result a should have been evicted")
	}
	if spec, ok := s.Spec(a.fp); !ok || !bytes.Equal(spec, a.spec) {
		t.Fatalf("spec a = %q, %v (specs must not be LRU-evicted)", spec, ok)
	}
	if st := s.Stats(); st.Specs != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}

	snap, _, err := s.SnapshotCut(7)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewStore(0)
	if _, err := restored.LoadSnapshot(bytes.NewReader(snap), 7); err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{a.fp, b.fp} {
		want, _ := s.Spec(fp)
		got, ok := restored.Spec(fp)
		if !ok || !bytes.Equal(want, got) {
			t.Fatalf("spec %s differs after restore: %s vs %s", fp, want, got)
		}
	}

	// Determinism: the same contents inserted in the opposite order write
	// the same snapshot bytes (specs are sorted by fingerprint).
	s2 := NewStore(1)
	s2.PutSpec(b.fp, b.spec)
	s2.PutSpec(a.fp, a.spec)
	mustMerge(t, s2, a.fp, a.blob)
	mustMerge(t, s2, b.fp, b.blob)
	snap2, _, err := s2.SnapshotCut(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Fatalf("snapshot bytes depend on spec insertion order:\n%q\n%q", snap, snap2)
	}
}

// TestStoreSnapshotWithoutSpecs: a relperf/fleet-snapshot/v1 JSON snapshot,
// the format before checkpoints were logs, is refused by name and restores
// nothing.
func TestStoreSnapshotWithoutSpecs(t *testing.T) {
	legacy := `{"schema":"relperf/fleet-snapshot/v1","seed":3,"entries":[{"fingerprint":"aaaa","result":{"v":1}}]}`
	s := NewStore(0)
	n, err := s.LoadSnapshot(strings.NewReader(legacy), 3)
	if err == nil || !strings.Contains(err.Error(), "relperf/fleet-snapshot/v1") {
		t.Fatalf("v1 snapshot: n=%d err=%v, want a refusal naming the schema", n, err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("stats = %+v after a refused load", st)
	}
}

func TestStoreSnapshotSeedMismatch(t *testing.T) {
	st := realStudies(t, 1)
	s := NewStore(0)
	mustMerge(t, s, st[0].fp, st[0].blob)
	snap, _, err := s.SnapshotCut(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(0).LoadSnapshot(bytes.NewReader(snap), 2); !errors.Is(err, wal.ErrSeedMismatch) {
		t.Fatalf("seed mismatch = %v, want wal.ErrSeedMismatch", err)
	}
	if _, err := NewStore(0).LoadSnapshot(strings.NewReader(`{"schema":"bogus","seed":1}`), 1); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestSnapshotCutIsStoredFrames is a randomized property test of the
// checkpoint the store cuts from the frames it keeps. After any sequence
// of PutSpec, Merge and Get steps under any capacity (so with evictions),
// SnapshotCut must equal its reference — the header, then each spec in
// fingerprint order and each cached result from least to most recently
// used, every record re-encoded by wal.AppendRecord — and reading it back
// and replaying it into a fresh store must rebuild the same Keys, blobs,
// specs and checkpoint.
func TestSnapshotCutIsStoredFrames(t *testing.T) {
	const seed = 25
	st := realStudies(t, 6)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		capacity := rng.Intn(5)
		s := NewStore(capacity)
		var mru []string // the model: cached fingerprints, most recent first
		specs := map[string][]byte{}
		touch := func(fp string) {
			if i := slices.Index(mru, fp); i >= 0 {
				mru = slices.Delete(mru, i, i+1)
			}
			mru = append([]string{fp}, mru...)
			if capacity > 0 && len(mru) > capacity {
				mru = mru[:capacity]
			}
		}
		for step := rng.Intn(30); step > 0; step-- {
			x := st[rng.Intn(len(st))]
			switch rng.Intn(3) {
			case 0:
				if err := s.PutSpec(x.fp, x.spec); err != nil {
					t.Fatal(err)
				}
				specs[x.fp] = x.spec
			case 1:
				mustMerge(t, s, x.fp, x.blob)
				touch(x.fp)
			default:
				if _, ok := s.Get(x.fp); ok {
					touch(x.fp)
				}
			}
		}
		if got := s.Keys(); !slices.Equal(got, mru) {
			t.Fatalf("trial %d: keys %v, model %v", trial, got, mru)
		}

		blobs := map[string][]byte{}
		for _, x := range st {
			blobs[x.fp] = x.blob
		}
		want := wal.AppendHeader(nil, seed)
		var err error
		fps := make([]string, 0, len(specs))
		for fp := range specs {
			fps = append(fps, fp)
		}
		sort.Strings(fps)
		for _, fp := range fps {
			if want, err = wal.AppendRecord(want, wal.Record{Type: wal.TypeSpec, Fingerprint: fp, Data: specs[fp]}); err != nil {
				t.Fatal(err)
			}
		}
		for i := len(mru) - 1; i >= 0; i-- {
			if want, err = wal.AppendRecord(want, wal.Record{Type: wal.TypeResult, Fingerprint: mru[i], Data: blobs[mru[i]]}); err != nil {
				t.Fatal(err)
			}
		}
		cut, _, err := s.SnapshotCut(seed)
		if err != nil || !bytes.Equal(cut, want) {
			t.Fatalf("trial %d: SnapshotCut differs from the re-encoded reference (%v)", trial, err)
		}

		recs, err := wal.Read(bytes.NewReader(cut), seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewStore(capacity)
		if _, _, err := ReplayWAL(fresh, seed, recs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := fresh.Keys(); !slices.Equal(got, s.Keys()) {
			t.Fatalf("trial %d: replayed keys %v, want %v", trial, got, s.Keys())
		}
		for fp, spec := range specs {
			if got, ok := fresh.Spec(fp); !ok || !bytes.Equal(got, spec) {
				t.Fatalf("trial %d: replayed spec %s = %q, %v", trial, fp, got, ok)
			}
		}
		again, _, _ := fresh.SnapshotCut(seed)
		if !bytes.Equal(again, cut) {
			t.Fatalf("trial %d: the replayed store cuts a different checkpoint", trial)
		}
		for _, fp := range mru {
			if got, ok := fresh.Get(fp); !ok || !bytes.Equal(got, blobs[fp]) {
				t.Fatalf("trial %d: replayed blob %s differs", trial, fp)
			}
		}
	}
}
