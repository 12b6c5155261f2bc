package fleet

// End-to-end lifecycle test of the declarative-spec serving path, run fully
// in-process (the process-level twin lives in cmd/relperfd): a suite of
// declarative studies is POSTed to the HTTP server, results are fetched,
// the store is snapshotted, the "daemon" is restarted from the snapshot
// into a smaller cache that evicts one study — and the evicted study must
// still be re-GETtable with byte-identical results, recomputed from the
// spec the snapshot carried. This is the tentpole property of PR 3: specs,
// not just result blobs, survive restarts.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
)

// declSuiteBody describes two cheap studies purely declaratively: a custom
// raw-kernel pipeline and a small gemm chain on an explicit platform.
const declSuiteBody = `{"studies":[
	{"program":{"name":"e2e-raw","tasks":[
		{"name":"L1","kernel":"raw","flops":5e8,"launches":10,"host_in_bytes":1e6,"host_out_bytes":1e6,"transfers":3,"accel_eff":0.01},
		{"name":"L2","kernel":"raw","flops":2e9,"launches":10,"host_in_bytes":5e6,"host_out_bytes":1e6,"transfers":3,"accel_eff":0.05}]},
	 "measurements":6,"reps":10},
	{"program":{"name":"e2e-gemm","tasks":[
		{"name":"G1","kernel":"gemm","size":64,"iters":8},
		{"name":"G2","kernel":"gemm","size":96,"iters":4,"cache_penalty_seconds":0.0003}]},
	 "platform":{"edge":{"preset":"raspberry-pi-4"},"link":{"preset":"wifi"}},
	 "measurements":6,"reps":10}
]}`

func TestE2EDeclarativeSpecLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite lifecycle; CI runs it in the dedicated e2e step")
	}
	const seed = 31

	// Generation 1: fresh daemon, declarative suite over the wire.
	store1 := NewStore(0)
	srv1, sched1 := newTestServer(t, seed, store1)
	ts1 := httptest.NewServer(srv1)
	sr := postSuite(t, ts1, declSuiteBody)
	if len(sr.Fingerprints) != 2 || sr.Fingerprints[0] == sr.Fingerprints[1] {
		t.Fatalf("fingerprints = %v", sr.Fingerprints)
	}
	want := map[string][]byte{}
	for _, fp := range sr.Fingerprints {
		code, body := getStudy(t, ts1, fp)
		if code != 200 {
			t.Fatalf("GET %s: %d %s", fp, code, body)
		}
		want[fp] = body
	}
	snap, _, err := store1.SnapshotCut(seed)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	sched1.Close()

	// Generation 2: restart from the snapshot into a capacity-1 store — the
	// LRU eviction during load drops one of the two results, keeping only
	// the most recently used. Both specs survive (specs are not evicted).
	store2 := NewStore(1)
	retained, err := store2.LoadSnapshot(bytes.NewReader(snap), seed)
	if err != nil {
		t.Fatal(err)
	}
	if retained != 1 {
		t.Fatalf("retained %d results in a capacity-1 store, want 1", retained)
	}
	if st := store2.Stats(); st.Specs != 2 {
		t.Fatalf("restored %d specs, want 2", st.Specs)
	}
	var evicted, kept string
	for _, fp := range sr.Fingerprints {
		if store2.Contains(fp) {
			kept = fp
		} else {
			evicted = fp
		}
	}
	if evicted == "" || kept == "" {
		t.Fatalf("expected one kept and one evicted study, store keys = %v", store2.Keys())
	}

	srv2, sched2 := newTestServer(t, seed, store2)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	// The kept study serves from the warm snapshot: zero recomputation.
	code, body := getStudy(t, ts2, kept)
	if code != 200 || !bytes.Equal(body, want[kept]) {
		t.Fatalf("warm study %s differs after restart (code %d)", kept, code)
	}
	if got := sched2.Computes(); got != 0 {
		t.Fatalf("computes = %d before touching the evicted study", got)
	}

	// The evicted study is recomputed transparently from its snapshot spec —
	// no resubmission — and the recomputed bytes are identical.
	code, body = getStudy(t, ts2, evicted)
	if code != 200 {
		t.Fatalf("GET evicted %s: %d %s", evicted, code, body)
	}
	if !bytes.Equal(body, want[evicted]) {
		t.Fatalf("recomputed study %s differs from the original bytes", evicted)
	}
	if got := sched2.Computes(); got != 1 {
		t.Fatalf("computes = %d after recomputing one evicted study", got)
	}

	// Unknown fingerprints still 404: no spec, no recompute.
	if code, _ := getStudy(t, ts2, "ffffffffffffffffffffffffffffffff"); code != 404 {
		t.Fatalf("unknown fingerprint: %d", code)
	}
}

// TestSchedulerRecomputeFromCorruptSpec: a snapshot spec that no longer
// resolves to its fingerprint (here: tampered content) must fail loudly,
// not serve a result under the wrong identity.
func TestSchedulerRecomputeFromCorruptSpec(t *testing.T) {
	store := NewStore(0)
	store.PutSpec("00112233445566778899aabbccddeeff", []byte(`{"workload":"tableI","loop_n":2,"measurements":6,"reps":10}`))
	sched := New(Options{Workers: 2, Seed: 3, Store: store})
	defer sched.Close()
	_, err := sched.Result(context.Background(), "00112233445566778899aabbccddeeff")
	if err == nil {
		t.Fatal("mismatched snapshot spec served a result")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("resolves to fingerprint")) {
		t.Fatalf("err = %v", err)
	}
}

// TestSchedulerRecomputeFromUnparseableSpec: garbage in the spec registry
// surfaces as an error, never a panic or a silent 404 masquerade.
func TestSchedulerRecomputeFromUnparseableSpec(t *testing.T) {
	store := NewStore(0)
	store.PutSpec("00112233445566778899aabbccddeeff", []byte(`{broken`))
	sched := New(Options{Workers: 2, Seed: 3, Store: store})
	defer sched.Close()
	_, err := sched.Result(context.Background(), "00112233445566778899aabbccddeeff")
	if err == nil {
		t.Fatal("unparseable snapshot spec served a result")
	}
}
