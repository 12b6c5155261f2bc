package fleet

// Crash-recovery properties of the WAL-backed store: journaled state
// replays to the identical bytes, a journal that refuses an append
// refuses the mutation with it, replay rejects records whose identity no
// longer checks out, and the replication surfaces (MergeSnapshot, the
// /v1/replica/snapshot handler, WriteSnapshotBytesAtomic, Replicator.Push)
// hold the never-overwrite and never-litter contracts under injected
// faults.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"relperf/internal/faultpoint"
	"relperf/internal/wal"
)

// walSpecs is a two-study suite for journal tests.
func walSpecs() []StudySpec {
	return []StudySpec{
		{Workload: "tableI", LoopN: 2, Measurements: 6, Reps: 10},
		{Workload: "tableI", LoopN: 3, Measurements: 6, Reps: 10},
	}
}

// runSuiteWithWAL runs the suite against a WAL-backed scheduler and
// returns the fingerprints and their served bytes.
func runSuiteWithWAL(t *testing.T, w *wal.Log, seed uint64) ([]string, map[string][]byte) {
	t.Helper()
	store := NewStore(0)
	store.SetWAL(w)
	sched := New(Options{Workers: 2, Seed: seed, Store: store})
	defer sched.Close()
	fps, err := sched.SubmitSpecs(walSpecs())
	if err != nil {
		t.Fatal(err)
	}
	blobs := make(map[string][]byte)
	for _, fp := range fps {
		blob, err := sched.Result(context.Background(), fp)
		if err != nil {
			t.Fatal(err)
		}
		blobs[fp] = blob
	}
	return fps, blobs
}

// TestWALJournalRecoverRoundTrip: every spec retained and result merged
// through a WAL-backed store replays into a fresh store as the identical
// bytes — the kill -9 durability contract, minus the kill.
func TestWALJournalRecoverRoundTrip(t *testing.T) {
	const seed = 11
	path := filepath.Join(t.TempDir(), "fleet.wal")
	w, recs, err := wal.Open(path, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(recs))
	}
	fps, blobs := runSuiteWithWAL(t, w, seed)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := wal.Open(path, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recovered := NewStore(0)
	counts, tasks, err := ReplayWAL(recovered, seed, recs)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Specs != 2 || counts.Results != 2 || len(tasks) != 0 {
		t.Fatalf("replay counts = %+v (tasks %d), want 2 specs + 2 results", counts, len(tasks))
	}
	for _, fp := range fps {
		got, ok := recovered.Get(fp)
		if !ok {
			t.Fatalf("replayed store does not hold %s", fp)
		}
		if !bytes.Equal(got, blobs[fp]) {
			t.Fatalf("replayed bytes for %s differ from the acked bytes", fp)
		}
		if _, ok := recovered.Spec(fp); !ok {
			t.Fatalf("replayed store lost the spec for %s", fp)
		}
	}
	// Replaying the same records again is a pile of idempotent no-ops.
	if _, _, err := ReplayWAL(recovered, seed, recs); err != nil {
		t.Fatalf("second replay: %v", err)
	}
}

// TestStoreRefusesUnjournaledState: when the WAL cannot take the append,
// Merge and PutSpec fail and the store stays unchanged — nothing becomes
// servable that a crash would un-serve.
func TestStoreRefusesUnjournaledState(t *testing.T) {
	const seed = 11
	defer faultpoint.Reset()
	w, _, err := wal.Open(filepath.Join(t.TempDir(), "fleet.wal"), seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	store := NewStore(0)
	store.SetWAL(w)

	const fp = "00112233445566778899aabbccddeeff"
	faultpoint.Arm("wal.append.sync", faultpoint.Error, 1)
	if err := store.Merge(fp, []byte(`{"x":1}`)); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Merge with a failing journal = %v, want injected fault", err)
	}
	if store.Contains(fp) {
		t.Fatal("store serves a result the journal never held")
	}
	faultpoint.Arm("wal.append.sync", faultpoint.Error, 1)
	if err := store.PutSpec(fp, []byte(`{"workload":"tableI"}`)); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("PutSpec with a failing journal = %v, want injected fault", err)
	}
	if _, ok := store.Spec(fp); ok {
		t.Fatal("store retains a spec the journal never held")
	}
	// The faults were one-shot; the same mutations now land and journal.
	if err := store.Merge(fp, []byte(`{"x":1}`)); err != nil {
		t.Fatalf("Merge after the fault cleared: %v", err)
	}
	if err := store.PutSpec(fp, []byte(`{"workload":"tableI"}`)); err != nil {
		t.Fatalf("PutSpec after the fault cleared: %v", err)
	}
}

// TestSubmitSpecsJournalsSuiteFirst: SubmitSpecs journals every spec of a
// suite before it starts any study, so a journal that refuses a later spec
// fails the suite with nothing computing, and no result can reach the log
// ahead of a spec of its own suite.
func TestSubmitSpecsJournalsSuiteFirst(t *testing.T) {
	const seed = 11
	defer faultpoint.Reset()
	w, _, err := wal.Open(filepath.Join(t.TempDir(), "fleet.wal"), seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	store := NewStore(0)
	store.SetWAL(w)
	sched := New(Options{Workers: 2, Seed: seed, Store: store})
	defer sched.Close()

	faultpoint.Arm("wal.append.sync", faultpoint.Error, 2)
	if _, err := sched.SubmitSpecs(walSpecs()); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("SubmitSpecs with the second spec refused = %v, want injected fault", err)
	}
	// Inflight first: a study that already left the in-flight set has
	// counted its compute.
	if n, c := sched.Inflight(), sched.Computes(); n != 0 || c != 0 {
		t.Fatalf("a suite whose second spec was refused started studies (inflight %d, computes %d)", n, c)
	}
}

// TestReplayWALRejectsForeignIdentity: a spec record whose declarative
// body no longer resolves to the fingerprint it was journaled under, and
// a result record that is not a canonical result document, both refuse
// replay loudly instead of restoring state under a broken identity.
func TestReplayWALRejectsForeignIdentity(t *testing.T) {
	const seed = 11
	spec := []byte(`{"workload":"tableI","loop_n":2,"measurements":6,"reps":10}`)
	_, _, err := ReplayWAL(NewStore(0), seed, []wal.Record{
		{Type: wal.TypeSpec, Fingerprint: "ffffffffffffffffffffffffffffffff", Data: spec},
	})
	if err == nil || !strings.Contains(err.Error(), "resolves to fingerprint") {
		t.Fatalf("mismatched spec replay = %v, want a fingerprint mismatch refusal", err)
	}
	_, _, err = ReplayWAL(NewStore(0), seed, []wal.Record{
		{Type: wal.TypeResult, Fingerprint: "ffffffffffffffffffffffffffffffff", Data: []byte(`{"not":"a result"}`)},
	})
	if err == nil {
		t.Fatal("non-canonical result record replayed")
	}
	_, _, err = ReplayWAL(NewStore(0), seed, []wal.Record{{Type: "mystery", Data: []byte(`{}`)}})
	if err == nil {
		t.Fatal("unknown record type replayed")
	}
}

// TestMergeSnapshotSemantics: absorbing a snapshot merges new entries,
// re-absorbs idempotently, refuses divergent bytes and refuses foreign
// seeds — the exact contract a standby needs to stay byte-identical.
func TestMergeSnapshotSemantics(t *testing.T) {
	const seed = 11
	src := NewStore(0)
	mustMerge(t, src, "aa", []byte(`{"a":1}`))
	mustMerge(t, src, "bb", []byte(`{"b":2}`))
	if err := src.PutSpec("aa", []byte(`{"workload":"tableI"}`)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap, seed); err != nil {
		t.Fatal(err)
	}

	dst := NewStore(0)
	if n, err := dst.MergeSnapshot(bytes.NewReader(snap.Bytes()), seed); err != nil || n != 2 {
		t.Fatalf("first merge = (%d, %v), want (2, nil)", n, err)
	}
	if n, err := dst.MergeSnapshot(bytes.NewReader(snap.Bytes()), seed); err != nil || n != 2 {
		t.Fatalf("idempotent re-merge = (%d, %v), want (2, nil)", n, err)
	}
	if got, _ := dst.Get("aa"); !bytes.Equal(got, []byte(`{"a":1}`)) {
		t.Fatalf("merged bytes = %s", got)
	}
	if _, ok := dst.Spec("aa"); !ok {
		t.Fatal("merge dropped the spec")
	}
	if _, err := dst.MergeSnapshot(bytes.NewReader(snap.Bytes()), seed+1); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("foreign-seed merge = %v, want ErrSeedMismatch", err)
	}
	conflicted := NewStore(0)
	mustMerge(t, conflicted, "aa", []byte(`{"a":999}`))
	if _, err := conflicted.MergeSnapshot(bytes.NewReader(snap.Bytes()), seed); !errors.Is(err, ErrMergeConflict) {
		t.Fatalf("divergent merge = %v, want ErrMergeConflict", err)
	}
}

// TestReplicaSnapshotEndpoint: the standby's HTTP surface — 200 with the
// applied count for a clean push, 409 for seed or byte conflicts, 400 for
// bytes that are not a snapshot.
func TestReplicaSnapshotEndpoint(t *testing.T) {
	const seed = 11
	sched := New(Options{Workers: 2, Seed: seed})
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	src := NewStore(0)
	mustMerge(t, src, "aa", []byte(`{"a":1}`))
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap, seed); err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/replica/snapshot", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(snap.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("clean push = %d, want 200", resp.StatusCode)
	}
	if got, ok := sched.Store().Get("aa"); !ok || !bytes.Equal(got, []byte(`{"a":1}`)) {
		t.Fatal("standby did not absorb the pushed result")
	}
	var foreign bytes.Buffer
	if err := src.WriteSnapshot(&foreign, seed+1); err != nil {
		t.Fatal(err)
	}
	if resp := post(foreign.Bytes()); resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign-seed push = %d, want 409", resp.StatusCode)
	}
	divergent := NewStore(0)
	mustMerge(t, divergent, "aa", []byte(`{"a":999}`))
	var div bytes.Buffer
	if err := divergent.WriteSnapshot(&div, seed); err != nil {
		t.Fatal(err)
	}
	if resp := post(div.Bytes()); resp.StatusCode != http.StatusConflict {
		t.Fatalf("divergent push = %d, want 409", resp.StatusCode)
	}
	if resp := post([]byte("not json")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage push = %d, want 400", resp.StatusCode)
	}
}

// TestWriteSnapshotBytesAtomicCleansUpUnderFaults: whichever stage fails —
// the write, the fsync, the rename — the previous snapshot survives
// untouched and no .tmp file is left behind.
func TestWriteSnapshotBytesAtomicCleansUpUnderFaults(t *testing.T) {
	const seed = 11
	defer faultpoint.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "store.snapshot.json")
	store := NewStore(0)
	writeSnapshot := func() error {
		data, _, err := store.SnapshotCut(seed)
		if err != nil {
			t.Fatal(err)
		}
		return WriteSnapshotBytesAtomic(data, path)
	}
	mustMerge(t, store, "aa", []byte(`{"a":1}`))
	if err := writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mustMerge(t, store, "bb", []byte(`{"b":2}`))
	for _, name := range []string{"snapshot.write", "snapshot.sync", "snapshot.rename"} {
		faultpoint.Arm(name, faultpoint.Error, 1)
		if err := writeSnapshot(); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("%s armed: err = %v, want injected fault", name, err)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s armed: .tmp file left behind", name)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s armed: previous snapshot was damaged", name)
		}
	}
	// Faults cleared: the write goes through and the new state lands.
	if err := writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	loaded := NewStore(0)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := loaded.LoadSnapshot(f, seed); err != nil || n != 2 {
		t.Fatalf("reload = (%d, %v), want (2, nil)", n, err)
	}
}

// TestSnapshotCutCompactionKeepsLateMerges reproduces the checkpoint
// lost-update window deterministically: a result acked between the
// snapshot capture and the WAL compaction must survive in the compacted
// log, and the captured snapshot must hold exactly the pre-capture state.
func TestSnapshotCutCompactionKeepsLateMerges(t *testing.T) {
	const seed = 11
	dir := t.TempDir()
	walPath := filepath.Join(dir, "fleet.wal")
	snapPath := filepath.Join(dir, "store.snapshot.json")
	w, _, err := wal.Open(walPath, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(0)
	store.SetWAL(w)
	if err := store.Merge("aa", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	data, cut, err := store.SnapshotCut(seed)
	if err != nil {
		t.Fatal(err)
	}
	// The late merge: acked after the capture, before the compaction.
	if err := store.Merge("bb", []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotBytesAtomic(data, snapPath); err != nil {
		t.Fatal(err)
	}
	if err := w.CompactTo(cut, seed); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: the snapshot holds the captured state, the compacted log
	// holds the late merge — together, everything that was ever acked.
	_, recs, err := wal.Open(walPath, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Fingerprint != "bb" {
		t.Fatalf("compacted log replays %+v, want exactly the late merge for bb", recs)
	}
	recovered := NewStore(0)
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := recovered.LoadSnapshot(f, seed); err != nil || n != 1 {
		t.Fatalf("snapshot reload = (%d, %v), want (1, nil)", n, err)
	}
	if err := recovered.Merge(recs[0].Fingerprint, recs[0].Data); err != nil {
		t.Fatal(err)
	}
	for fp, want := range map[string][]byte{"aa": []byte(`{"a":1}`), "bb": []byte(`{"b":2}`)} {
		if got, ok := recovered.Get(fp); !ok || !bytes.Equal(got, want) {
			t.Fatalf("recovered %s = (%s, %v), want %s", fp, got, ok, want)
		}
	}
}

// TestCheckpointRacesMergesLoseNothing hammers the real interleaving: a
// checkpoint loop (capture → atomic snapshot → WAL compaction) racing
// merge traffic. Whatever the schedule, snapshot + compacted log must
// recover every merge that was acknowledged.
func TestCheckpointRacesMergesLoseNothing(t *testing.T) {
	const seed = 11
	dir := t.TempDir()
	walPath := filepath.Join(dir, "fleet.wal")
	snapPath := filepath.Join(dir, "store.snapshot.json")
	w, _, err := wal.Open(walPath, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(0)
	store.SetWAL(w)

	stop := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				ckptDone <- nil
				return
			default:
			}
			data, cut, err := store.SnapshotCut(seed)
			if err == nil {
				if err = WriteSnapshotBytesAtomic(data, snapPath); err == nil {
					err = w.CompactTo(cut, seed)
				}
			}
			if err != nil {
				ckptDone <- err
				return
			}
		}
	}()

	const mergers, perMerger = 4, 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := make(map[string][]byte)
	for g := 0; g < mergers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perMerger; i++ {
				fp := fmt.Sprintf("%02x%030x", g, i)
				blob := []byte(fmt.Sprintf(`{"g":%d,"i":%d}`, g, i))
				if err := store.Merge(fp, blob); err != nil {
					t.Errorf("merge %s: %v", fp, err)
					return
				}
				mu.Lock()
				acked[fp] = blob
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint loop: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover from disk alone: last snapshot + compacted WAL.
	_, recs, err := wal.Open(walPath, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	recovered := NewStore(0)
	if f, err := os.Open(snapPath); err == nil {
		if _, err := recovered.LoadSnapshot(f, seed); err != nil {
			t.Fatal(err)
		}
		f.Close()
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Type != wal.TypeResult {
			t.Fatalf("unexpected record type %q in the log", rec.Type)
		}
		if err := recovered.Merge(rec.Fingerprint, rec.Data); err != nil {
			t.Fatalf("replaying %s: %v", rec.Fingerprint, err)
		}
	}
	for fp, want := range acked {
		got, ok := recovered.Get(fp)
		if !ok {
			t.Fatalf("acked merge %s is in neither the snapshot nor the compacted log", fp)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("recovered bytes for %s differ from the acked bytes", fp)
		}
	}
}

// TestReplicatorPush: a push fans out to every standby, a failing one is
// reported without stopping the rest, and the standby ends up serving the
// pushed bytes.
func TestReplicatorPush(t *testing.T) {
	const seed = 11
	defer faultpoint.Reset()
	standby := New(Options{Workers: 2, Seed: seed})
	defer standby.Close()
	ts := httptest.NewServer(NewServer(standby))
	defer ts.Close()

	src := NewStore(0)
	mustMerge(t, src, "aa", []byte(`{"a":1}`))
	rep := &Replicator{URLs: []string{ts.URL}, Logf: t.Logf}
	if err := rep.Push(context.Background(), src, seed); err != nil {
		t.Fatal(err)
	}
	if got, ok := standby.Store().Get("aa"); !ok || !bytes.Equal(got, []byte(`{"a":1}`)) {
		t.Fatal("standby does not serve the pushed bytes")
	}
	// One dead standby degrades the round, not the others.
	rep2 := &Replicator{URLs: []string{"http://127.0.0.1:1", ts.URL}, Logf: t.Logf}
	mustMerge(t, src, "bb", []byte(`{"b":2}`))
	if err := rep2.Push(context.Background(), src, seed); err == nil {
		t.Fatal("push with a dead standby reported success")
	}
	if _, ok := standby.Store().Get("bb"); !ok {
		t.Fatal("live standby missed the push because another standby was dead")
	}
	// The replica.push faultpoint injects the same degradation.
	faultpoint.Arm("replica.push", faultpoint.Error, 1)
	if err := rep.Push(context.Background(), src, seed); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("armed push = %v, want injected fault", err)
	}
}
