package fleet

// Crash-recovery properties of the WAL-backed store: journaled state
// replays to the identical bytes, a journal that refuses an append
// refuses the mutation with it, replay rejects records whose identity no
// longer checks out, every kind of checkpoint damage is refused with the
// record named, and the replication surfaces (MergeSnapshot, the
// /v1/replica/snapshot handler, WriteSnapshotBytesAtomic, Replicator.Push)
// hold the never-overwrite and never-litter contracts under injected
// faults.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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
	st := realStudies(t, 3)
	src := NewStore(0)
	mustMerge(t, src, st[0].fp, st[0].blob)
	mustMerge(t, src, st[1].fp, st[1].blob)
	if err := src.PutSpec(st[0].fp, st[0].spec); err != nil {
		t.Fatal(err)
	}
	snap, _, err := src.SnapshotCut(seed)
	if err != nil {
		t.Fatal(err)
	}

	dst := NewStore(0)
	if n, err := dst.MergeSnapshot(bytes.NewReader(snap), seed); err != nil || n != 2 {
		t.Fatalf("first merge = (%d, %v), want (2, nil)", n, err)
	}
	if n, err := dst.MergeSnapshot(bytes.NewReader(snap), seed); err != nil || n != 2 {
		t.Fatalf("idempotent re-merge = (%d, %v), want (2, nil)", n, err)
	}
	if got, _ := dst.Get(st[0].fp); !bytes.Equal(got, st[0].blob) {
		t.Fatalf("merged bytes = %s", got)
	}
	if _, ok := dst.Spec(st[0].fp); !ok {
		t.Fatal("merge dropped the spec")
	}
	if _, err := dst.MergeSnapshot(bytes.NewReader(snap), seed+1); !errors.Is(err, wal.ErrSeedMismatch) {
		t.Fatalf("foreign-seed merge = %v, want wal.ErrSeedMismatch", err)
	}
	conflicted := NewStore(0)
	mustMerge(t, conflicted, st[0].fp, st[2].blob)
	if _, err := conflicted.MergeSnapshot(bytes.NewReader(snap), seed); !errors.Is(err, ErrMergeConflict) {
		t.Fatalf("divergent merge = %v, want ErrMergeConflict", err)
	}
}

// corruptions builds, from a clean checkpoint of real studies, one
// checkpoint per kind of damage that must fail recovery loudly, each with
// the record its error must name (index, fingerprint, byte offset); the
// v1 JSON snapshot names no record (index -2), only its schema.
type corruption struct {
	name  string
	data  []byte
	index int
	fp    string
	off   int64
}

func corruptions(t *testing.T, clean []byte, seed uint64) []corruption {
	t.Helper()
	recs, err := wal.Read(bytes.NewReader(clean), seed)
	if err != nil {
		t.Fatal(err)
	}
	// reframe re-encodes every record, with fresh CRCs, after edit.
	reframe := func(edit func(recs []wal.Record)) []byte {
		cp := append([]wal.Record(nil), recs...)
		edit(cp)
		b := wal.AppendHeader(nil, seed)
		for _, rec := range cp {
			if b, err = wal.AppendRecord(b, rec); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	spec, res := -1, -1
	for i, rec := range recs {
		if rec.Type == wal.TypeSpec && spec < 0 {
			spec = i
		}
		if rec.Type == wal.TypeResult {
			res = i // the last result: its frame ends the file
		}
	}
	if spec < 0 || res < 0 {
		t.Fatalf("checkpoint holds no spec or no result: %+v", recs)
	}

	// A one-digit flip inside the last result's data, CRC untouched.
	flip := append([]byte(nil), clean...)
	// The data follows the fingerprint in the record's frame.
	start := int(recs[res].Offset) + bytes.Index(clean[recs[res].Offset:], []byte(recs[res].Fingerprint)) + len(recs[res].Fingerprint)
	i := start + bytes.IndexAny(flip[start:], "123456789")
	flip[i] = '0' + (flip[i]-'0'+1)%10

	// A spec whose body no longer resolves to its fingerprint.
	other := recs[spec].Fingerprint
	for _, rec := range recs {
		if rec.Type == wal.TypeSpec && rec.Fingerprint != other {
			other = rec.Fingerprint
			break
		}
	}
	if other == recs[spec].Fingerprint {
		t.Fatal("checkpoint holds only one spec")
	}
	rekey := reframe(func(cp []wal.Record) { cp[spec].Fingerprint = other })
	notResult := reframe(func(cp []wal.Record) { cp[res].Data = json.RawMessage(`{"not":"a result"}`) })
	// The last result with a space after its first colon and its first
	// sample time written with an exponent (x as xe0): the same result in
	// other bytes, which no CRC can tell from the canonical ones.
	data := recs[res].Data
	at := bytes.Index(data, []byte(`"seconds":[`))
	if at < 0 {
		t.Fatalf("no sample time to respell in %.80s", data)
	}
	at += len(`"seconds":[`) + bytes.IndexAny(data[at+len(`"seconds":[`):], ",]")
	respelled := bytes.Replace(fmt.Appendf(nil, "%se0%s", data[:at], data[at:]), []byte(`":`), []byte(`": `), 1)
	nonCanonical := reframe(func(cp []wal.Record) { cp[res].Data = respelled })

	return []corruption{
		{"digit-flip", flip, res, recs[res].Fingerprint, recs[res].Offset},
		{"spec-rekey", rekey, spec, other, recs[spec].Offset},
		{"not-a-result", notResult, res, recs[res].Fingerprint, recs[res].Offset},
		{"non-canonical", nonCanonical, res, recs[res].Fingerprint, recs[res].Offset},
		{"truncated", clean[:len(clean)-5], res, recs[res].Fingerprint, recs[res].Offset},
		{"v1-json", []byte(`{"schema":"relperf/fleet-snapshot/v1","seed":11,"entries":[]}`), -2, "", 0},
	}
}

// wantNamed asserts err is a refusal naming c's record, or for the v1
// snapshot, its schema.
func (c corruption) wantNamed(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: checkpoint accepted", c.name)
	}
	if c.index == -2 {
		if !strings.Contains(err.Error(), "relperf/fleet-snapshot/v1") {
			t.Fatalf("%s: %v, want the v1 schema named", c.name, err)
		}
		return
	}
	var re *wal.RecordError
	if !errors.As(err, &re) || re.Index != c.index || re.Fingerprint != c.fp || re.Offset != c.off {
		t.Fatalf("%s: %v, want record %d (%s) at byte offset %d named", c.name, err, c.index, c.fp, c.off)
	}
	for _, part := range []string{fmt.Sprintf("record %d", c.index), c.fp, fmt.Sprintf("byte offset %d", c.off)} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("%s: error %q does not say %q", c.name, err, part)
		}
	}
}

// cleanCheckpoint is a checkpoint of real studies: specs and results.
func cleanCheckpoint(t *testing.T, seed uint64) []byte {
	t.Helper()
	src := NewStore(0)
	for _, x := range realStudies(t, 3) {
		if err := src.PutSpec(x.fp, x.spec); err != nil {
			t.Fatal(err)
		}
		mustMerge(t, src, x.fp, x.blob)
	}
	snap, _, err := src.SnapshotCut(seed)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCheckpointCorruptionRefused: every kind of checkpoint damage fails
// the load with the damaged record named, where before a flipped digit
// was served after a restart.
func TestCheckpointCorruptionRefused(t *testing.T) {
	const seed = 11
	clean := cleanCheckpoint(t, seed)
	if _, err := NewStore(0).LoadSnapshot(bytes.NewReader(clean), seed); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
	for _, c := range corruptions(t, clean, seed) {
		_, err := NewStore(0).LoadSnapshot(bytes.NewReader(c.data), seed)
		c.wantNamed(t, err)
	}
}

// TestReplicaSnapshotEndpoint: the standby's HTTP surface — 200 with the
// applied count for a clean push, 409 for seed or byte conflicts, 400 for
// bytes that are not a valid checkpoint. A refused push leaves the store
// exactly as it was.
func TestReplicaSnapshotEndpoint(t *testing.T) {
	const seed = 11
	sched := New(Options{Workers: 2, Seed: seed})
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	st := realStudies(t, 2)
	src := NewStore(0)
	mustMerge(t, src, st[0].fp, st[0].blob)
	snap, _, err := src.SnapshotCut(seed)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/replica/snapshot", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("clean push = %d, want 200", resp.StatusCode)
	}
	if got, ok := sched.Store().Get(st[0].fp); !ok || !bytes.Equal(got, st[0].blob) {
		t.Fatal("standby did not absorb the pushed result")
	}
	stats, keys := sched.Store().Stats(), sched.Store().Keys()
	refused := func(what string, body []byte, code int) {
		t.Helper()
		if resp := post(body); resp.StatusCode != code {
			t.Fatalf("%s push = %d, want %d", what, resp.StatusCode, code)
		}
		want := stats
		if what == "divergent" {
			want.Conflicts++ // counted, and nothing else changes
		}
		if got := sched.Store().Stats(); got != want {
			t.Fatalf("%s push changed the standby's stats: %+v -> %+v", what, stats, got)
		}
		if got := sched.Store().Keys(); !reflect.DeepEqual(got, keys) {
			t.Fatalf("%s push changed the standby's keys: %v -> %v", what, keys, got)
		}
	}
	for _, c := range corruptions(t, cleanCheckpoint(t, seed), seed) {
		refused(c.name, c.data, http.StatusBadRequest)
	}
	refused("garbage", []byte("not json"), http.StatusBadRequest)
	foreign, _, err := src.SnapshotCut(seed + 1)
	if err != nil {
		t.Fatal(err)
	}
	refused("foreign-seed", foreign, http.StatusConflict)
	divergent := NewStore(0)
	mustMerge(t, divergent, st[0].fp, st[1].blob)
	div, _, err := divergent.SnapshotCut(seed)
	if err != nil {
		t.Fatal(err)
	}
	refused("divergent", div, http.StatusConflict)
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
	st := realStudies(t, 2)
	mustMerge(t, store, st[0].fp, st[0].blob)
	if err := writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mustMerge(t, store, st[1].fp, st[1].blob)
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
	st := realStudies(t, 2)
	aa, bb := st[0].fp, st[1].fp
	if err := store.Merge(aa, st[0].blob); err != nil {
		t.Fatal(err)
	}
	data, cut, err := store.SnapshotCut(seed)
	if err != nil {
		t.Fatal(err)
	}
	// The late merge: acked after the capture, before the compaction.
	if err := store.Merge(bb, st[1].blob); err != nil {
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
	if len(recs) != 1 || recs[0].Fingerprint != bb {
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
	for fp, want := range map[string][]byte{aa: st[0].blob, bb: st[1].blob} {
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
	st := realStudies(t, 4)
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := make(map[string][]byte)
	for g := 0; g < mergers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perMerger; i++ {
				fp := fmt.Sprintf("%02x%030x", g, i)
				blob := st[(g+i)%len(st)].blob
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

	st := realStudies(t, 2)
	src := NewStore(0)
	cut := func() []byte {
		t.Helper()
		data, _, err := src.SnapshotCut(seed)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	mustMerge(t, src, st[0].fp, st[0].blob)
	rep := &Replicator{URLs: []string{ts.URL}, Logf: t.Logf}
	if err := rep.Push(context.Background(), cut()); err != nil {
		t.Fatal(err)
	}
	if got, ok := standby.Store().Get(st[0].fp); !ok || !bytes.Equal(got, st[0].blob) {
		t.Fatal("standby does not serve the pushed bytes")
	}
	// One dead standby degrades the round, not the others.
	rep2 := &Replicator{URLs: []string{"http://127.0.0.1:1", ts.URL}, Logf: t.Logf}
	mustMerge(t, src, st[1].fp, st[1].blob)
	if err := rep2.Push(context.Background(), cut()); err == nil {
		t.Fatal("push with a dead standby reported success")
	}
	if _, ok := standby.Store().Get(st[1].fp); !ok {
		t.Fatal("live standby missed the push because another standby was dead")
	}
	// The replica.push faultpoint injects the same degradation.
	faultpoint.Arm("replica.push", faultpoint.Error, 1)
	if err := rep.Push(context.Background(), cut()); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("armed push = %v, want injected fault", err)
	}
}
