package fleet

// The /summary body is encoded once per cached entry and kept with it:
// these tests hold the kept bytes to a fresh SummarizeResult + writeJSON
// encoding, check that eviction drops them, and check that unknown and
// in-flight studies answer exactly as the uncached handler did.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"relperf"
)

// resultBlob computes one tiny study and returns its canonical result
// bytes — a valid SummarizeResult input under any fingerprint.
func resultBlob(t *testing.T) []byte {
	t.Helper()
	sched := New(Options{Workers: 1, Seed: 5})
	defer sched.Close()
	fps, err := sched.SubmitSpecs([]StudySpec{{Workload: "tableI", LoopN: 2, Measurements: 6, Reps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sched.Result(context.Background(), fps[0])
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// cachedSummary is the body kept on fp's cache entry: nil when fp is not
// cached or its summary was never requested.
func cachedSummary(s *Store, fp string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[fp]; ok {
		return el.Value.(*storeEntry).summary
	}
	return nil
}

// writeJSONBody is what writeJSON writes for v.
func writeJSONBody(t *testing.T, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// TestStoreSummaryServedVerbatim: the first /summary GET answers exactly
// what writeJSON(SummarizeResult) wrote before the cache existed and keeps
// those bytes on the entry; the second GET is served from them without
// summarizing again — with the stored result made unparseable in between,
// only the kept body can still answer 200.
func TestStoreSummaryServedVerbatim(t *testing.T) {
	for _, tc := range []struct{ name, suite string }{{"exact", suiteBody}, {"sketch", sketchSuiteBody}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, sched := newTestServer(t, 17, nil)
			ts := httptest.NewServer(srv)
			defer ts.Close()
			fp := postSuite(t, ts, tc.suite).Fingerprints[0]
			path := "/v1/studies/" + fp + "/summary"

			resp, first := getWithHeader(t, ts, path, "", "")
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("GET summary: %d %q %s", resp.StatusCode, resp.Header.Get("Content-Type"), first)
			}
			store := sched.Store()
			blob, _ := store.Get(fp)
			sum, err := SummarizeResult(fp, blob)
			if err != nil {
				t.Fatal(err)
			}
			if want := writeJSONBody(t, sum); !bytes.Equal(first, want) {
				t.Fatalf("summary body\n%s\ndiffers from writeJSON(SummarizeResult)\n%s", first, want)
			}
			if kept := cachedSummary(store, fp); !bytes.Equal(kept, first) {
				t.Fatalf("entry keeps %q, want the served body", kept)
			}

			store.mu.Lock()
			store.items[fp].Value.(*storeEntry).data = []byte("{}")
			store.mu.Unlock()
			resp, second := getWithHeader(t, ts, path, "", "")
			if resp.StatusCode != http.StatusOK || !bytes.Equal(second, first) {
				t.Fatalf("second GET: %d %s, want the first body verbatim", resp.StatusCode, second)
			}
		})
	}
}

// TestStoreSummaryRebuiltAfterEviction: eviction drops an entry's summary
// with it, a re-merged entry builds its own, and a summary asked for a
// fingerprint no longer cached is built from the caller's blob and kept
// nowhere.
func TestStoreSummaryRebuiltAfterEviction(t *testing.T) {
	blob := resultBlob(t)
	s := NewStore(1)
	mustMerge(t, s, "aa", blob)
	first, err := s.Summary("aa", blob)
	if err != nil {
		t.Fatal(err)
	}
	mustMerge(t, s, "bb", blob) // evicts aa
	mustMerge(t, s, "aa", blob) // evicts bb
	if kept := cachedSummary(s, "aa"); kept != nil {
		t.Fatalf("re-merged entry inherited summary %q", kept)
	}
	again, err := s.Summary("aa", blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) || &again[0] == &first[0] {
		t.Fatal("re-merged entry did not rebuild an identical summary")
	}
	if kept := cachedSummary(s, "aa"); &kept[0] != &again[0] {
		t.Fatal("rebuilt summary not kept on the re-merged entry")
	}

	want, err := encodeSummary("bb", blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Summary("bb", blob)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("summary of evicted bb = %q, %v; want %q", got, err, want)
	}
	if s.Contains("bb") || s.Len() != 1 {
		t.Fatal("summarizing an evicted fingerprint changed the cache")
	}
}

// TestStoreSummaryUnknownAndInflight: an unknown fingerprint is the same
// 404 the full-result GET gives, and an in-flight study's summary blocks
// until the result lands, then answers with its encoding.
func TestStoreSummaryUnknownAndInflight(t *testing.T) {
	gate := make(chan struct{})
	sched := New(Options{
		Workers: 1,
		Seed:    7,
		// Parking the dispatch hook keeps the study in flight until the
		// test releases it.
		Dispatch: func(ctx context.Context, task relperf.GridTask) ([]byte, error) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return nil, errors.New("test grid declines; run locally")
		},
	})
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	unknown := "ffffffffffffffffffffffffffffffff"
	resp, body := getWithHeader(t, ts, "/v1/studies/"+unknown+"/summary", "", "")
	_, want := getWithHeader(t, ts, "/v1/studies/"+unknown, "", "")
	if resp.StatusCode != http.StatusNotFound || !bytes.Equal(body, want) {
		t.Fatalf("unknown summary: %d %s, want 404 %s", resp.StatusCode, body, want)
	}

	fps, err := sched.SubmitSpecs([]StudySpec{{Workload: "tableI", LoopN: 2, Measurements: 6, Reps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	fp := fps[0]
	waitUntil(t, "study computing", func() bool { return sched.Computing(fp) })
	type reply struct {
		code int
		body []byte
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/studies/" + fp + "/summary")
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- reply{resp.StatusCode, b, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("summary of an in-flight study answered early: %d %s", r.code, r.body)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	blob, ok := sched.Store().Get(fp)
	if !ok {
		t.Fatal("finished study not cached")
	}
	sum, err := SummarizeResult(fp, blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := writeJSONBody(t, sum); r.code != http.StatusOK || !bytes.Equal(r.body, want) {
		t.Fatalf("in-flight summary: %d %s, want 200 %s", r.code, r.body, want)
	}
}

// TestStoreSummaryConcurrent: summaries and index walks racing Merge,
// PutSpec and eviction always return each fingerprint's own encoding.
// Run with -race.
func TestStoreSummaryConcurrent(t *testing.T) {
	blob := resultBlob(t)
	const pool = 8
	want := make(map[string][]byte, pool)
	for i := 0; i < pool; i++ {
		fp := fmt.Sprintf("%032x", i)
		b, err := encodeSummary(fp, blob)
		if err != nil {
			t.Fatal(err)
		}
		want[fp] = b
	}
	s := NewStore(3)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				fp := fmt.Sprintf("%032x", rng.Intn(pool))
				switch g % 3 {
				case 0:
					if err := s.Merge(fp, blob); err != nil {
						t.Error(err)
						return
					}
					if rng.Intn(4) == 0 {
						if err := s.PutSpec(fp, []byte("{}")); err != nil {
							t.Error(err)
							return
						}
					}
				case 1:
					got, err := s.Summary(fp, blob)
					if err != nil || !bytes.Equal(got, want[fp]) {
						t.Errorf("Summary(%s) = %q, %v", fp, got, err)
						return
					}
				default:
					s.IndexPage(fp, 1+rng.Intn(pool))
				}
			}
		}(g)
	}
	wg.Wait()
}
