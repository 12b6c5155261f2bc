package fleet

// Store.IndexPage serves GET /v1/studies from a sorted fingerprint list the
// store keeps incrementally: mutators append to an unsorted tail or count a
// stale entry, and the next read settles both. These tests hold the page
// walk to the obvious reference — the sorted union of cached results and
// retained specs — through every mutation and eviction order.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// walkIndex reassembles the store's whole enumeration through IndexPage at
// the given limit, checking the page contract on the way: every page but
// the last is full, and next is the last fingerprint of its page and lies
// past the cursor.
func walkIndex(t *testing.T, s *Store, limit int) []IndexEntry {
	t.Helper()
	var all []IndexEntry
	cursor := ""
	for {
		page, next := s.IndexPage(cursor, limit)
		all = append(all, page...)
		if next == "" {
			return all
		}
		if len(page) != limit || next != page[len(page)-1].Fingerprint || next <= cursor {
			t.Fatalf("page after %q: %d entries (limit %d), next %q", cursor, len(page), limit, next)
		}
		cursor = next
	}
}

// referenceIndex is the enumeration IndexPage must produce: the union of
// Keys() and the retained specs, sorted, with a flag for each source.
func referenceIndex(s *Store, specs map[string]bool) []IndexEntry {
	at := make(map[string]*IndexEntry)
	for _, fp := range s.Keys() {
		at[fp] = &IndexEntry{Fingerprint: fp, Cached: true}
	}
	for fp := range specs {
		if e, ok := at[fp]; ok {
			e.Spec = true
		} else {
			at[fp] = &IndexEntry{Fingerprint: fp, Spec: true}
		}
	}
	out := make([]IndexEntry, 0, len(at))
	for _, e := range at {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

func TestStoreIndex(t *testing.T) {
	s := NewStore(0)
	mustMerge(t, s, "bb", []byte("2"))
	mustMerge(t, s, "aa", []byte("1"))
	s.PutSpec("bb", []byte("{}"))
	s.PutSpec("cc", []byte("{}"))
	got, next := s.IndexPage("", 10)
	want := []IndexEntry{
		{Fingerprint: "aa", Cached: true},
		{Fingerprint: "bb", Cached: true, Spec: true},
		{Fingerprint: "cc", Spec: true},
	}
	if !slices.Equal(got, want) || next != "" {
		t.Fatalf("IndexPage(\"\", 10) = %+v, %q; want %+v, \"\"", got, next, want)
	}
	// Enumeration leaves the serving counters untouched.
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("IndexPage touched counters: %+v", st)
	}
}

// TestStoreIndexPageCursorExclusive: a page starts strictly after its
// cursor, whether or not the cursor is itself a known fingerprint, and a
// cursor past the end (or a limit below 1) yields an empty, non-nil page.
func TestStoreIndexPageCursorExclusive(t *testing.T) {
	s := NewStore(0)
	for _, fp := range []string{"b", "d", "f"} {
		mustMerge(t, s, fp, []byte(fp))
	}
	for _, tc := range []struct {
		cursor string
		limit  int
		first  string
		next   string
	}{
		{"", 2, "b", "d"},
		{"b", 1, "d", "d"},
		{"c", 5, "d", ""},
		{"d", 1, "f", ""},
	} {
		page, next := s.IndexPage(tc.cursor, tc.limit)
		if len(page) == 0 || page[0].Fingerprint != tc.first || next != tc.next {
			t.Fatalf("IndexPage(%q, %d) = %+v, %q; want first %q, next %q", tc.cursor, tc.limit, page, next, tc.first, tc.next)
		}
	}
	for _, tc := range []struct {
		cursor string
		limit  int
	}{{"f", 3}, {"z", 3}, {"", 0}, {"", -1}} {
		if page, next := s.IndexPage(tc.cursor, tc.limit); page == nil || len(page) != 0 || next != "" {
			t.Fatalf("IndexPage(%q, %d) = %#v, %q; want an empty page", tc.cursor, tc.limit, page, next)
		}
	}
}

// TestStoreIndexPageMatchesReference: after every step of a random
// Merge/PutSpec/Get sequence (each step a burst of one to four operations) — on unbounded stores and on stores small
// enough to evict both spec-less and spec-retained results — a cursor walk
// at a random limit equals the sorted union of Keys() and the retained
// specs, flags included.
func TestStoreIndexPageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var evictedBare, evictedWithSpec int
	for trial := 0; trial < 40; trial++ {
		capacity := 0
		if trial%4 != 0 {
			capacity = 1 + rng.Intn(6)
		}
		s := NewStore(capacity)
		specs := make(map[string]bool)
		pool := 4 + rng.Intn(24)
		for step := 0; step < 150; step++ {
			// A step is a burst of operations, so a settle absorbs
			// several mutations — an eviction and a re-merge of the same
			// fingerprint among them.
			for burst := 1 + rng.Intn(4); burst > 0; burst-- {
				fp := fmt.Sprintf("%08x", rng.Intn(pool)*0x9e3779b1)
				switch op := rng.Intn(10); {
				case op < 5:
					before := s.Keys()
					mustMerge(t, s, fp, []byte(fp))
					for _, old := range before {
						if !s.Contains(old) {
							if specs[old] {
								evictedWithSpec++
							} else {
								evictedBare++
							}
						}
					}
				case op < 8:
					if err := s.PutSpec(fp, []byte(`{"v":`+fmt.Sprint(step)+`}`)); err != nil {
						t.Fatal(err)
					}
					specs[fp] = true
				default:
					s.Get(fp)
				}
			}
			limit := 1 + rng.Intn(8)
			if got, want := walkIndex(t, s, limit), referenceIndex(s, specs); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d (capacity %d, limit %d):\n got %+v\nwant %+v", trial, step, capacity, limit, got, want)
			}
		}
	}
	if evictedBare == 0 || evictedWithSpec == 0 {
		t.Fatalf("sequences evicted %d spec-less and %d spec-retained results; want both", evictedBare, evictedWithSpec)
	}
}

// TestStoreIndexPageDropsEvictedAndDuplicates: a burst of mutations that
// evicts and re-merges every fingerprint between two reads settles into a
// listing where no fingerprint appears twice and none the store no longer
// knows appears at all.
func TestStoreIndexPageDropsEvictedAndDuplicates(t *testing.T) {
	s := NewStore(3)
	s.IndexPage("", 1) // settle the empty store
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ { // each fp is evicted and merged again
			fp := fmt.Sprintf("fp%d", i)
			mustMerge(t, s, fp, []byte(fp))
		}
	}
	if err := s.PutSpec("fp0", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	want := referenceIndex(s, map[string]bool{"fp0": true})
	if got := walkIndex(t, s, 2); !slices.Equal(got, want) {
		t.Fatalf("walk = %+v, want %+v", got, want)
	}
}

// TestStoreIndexPageConcurrent: cursor walks racing Merge, PutSpec and
// eviction always list strictly ascending fingerprints and terminate, and
// once the writers stop the walk equals the reference. Run with -race.
func TestStoreIndexPageConcurrent(t *testing.T) {
	s := NewStore(16)
	const writers, readers, steps = 4, 2, 300
	var wg sync.WaitGroup
	var specMu sync.Mutex
	specs := make(map[string]bool)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < steps; i++ {
				fp := fmt.Sprintf("%04x", rng.Intn(64))
				if rng.Intn(4) == 0 {
					specMu.Lock()
					specs[fp] = true
					specMu.Unlock()
					if err := s.PutSpec(fp, []byte("{}")); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := s.Merge(fp, []byte(fp)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < steps/10; i++ {
				cursor, prev := "", ""
				for pages := 0; ; pages++ {
					if pages > 65 { // at most 64 fingerprints, one per page
						t.Error("cursor walk did not terminate")
						return
					}
					page, next := s.IndexPage(cursor, 1+(i+r)%7)
					for _, e := range page {
						if e.Fingerprint <= prev {
							t.Errorf("walk went from %q to %q", prev, e.Fingerprint)
							return
						}
						prev = e.Fingerprint
					}
					if next == "" {
						break
					}
					cursor = next
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := walkIndex(t, s, 5), referenceIndex(s, specs); !slices.Equal(got, want) {
		t.Fatalf("quiescent walk = %+v, want %+v", got, want)
	}
}
