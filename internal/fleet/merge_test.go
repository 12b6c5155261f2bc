package fleet

// Store.Merge is the multi-source write path of the grid tier: results for
// one fingerprint may arrive from any worker, from local fallback, or from
// a snapshot, and the store must treat agreement as a no-op and
// disagreement as an error — never as an overwrite.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestStoreMergeProperty: merging the same fingerprint from two sources is
// idempotent whatever the interleaving, and a byte mismatch is rejected
// loudly with the original bytes left intact.
func TestStoreMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		s := NewStore(0)
		n := 1 + rng.Intn(8)
		blobs := make(map[string][]byte, n)
		var fps []string
		for i := 0; i < n; i++ {
			fp := fmt.Sprintf("%032x", i)
			blob := make([]byte, 1+rng.Intn(64))
			rng.Read(blob)
			blobs[fp] = blob
			fps = append(fps, fp)
		}
		// Two "sources" merge every study in random interleaved order.
		order := append(append([]string(nil), fps...), fps...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, fp := range order {
			if err := s.Merge(fp, blobs[fp]); err != nil {
				t.Fatalf("trial %d: merge of identical bytes failed: %v", trial, err)
			}
		}
		if s.Len() != n {
			t.Fatalf("trial %d: %d entries after duplicate merges, want %d", trial, s.Len(), n)
		}
		// A third source disagrees on one study: loud rejection, original
		// bytes untouched.
		victim := fps[rng.Intn(n)]
		tampered := append(append([]byte(nil), blobs[victim]...), 'x')
		err := s.Merge(victim, tampered)
		if !errors.Is(err, ErrMergeConflict) {
			t.Fatalf("trial %d: conflicting merge returned %v, want ErrMergeConflict", trial, err)
		}
		got, ok := s.Get(victim)
		if !ok || !bytes.Equal(got, blobs[victim]) {
			t.Fatalf("trial %d: conflicting merge mutated the stored bytes", trial)
		}
	}
}

func TestStoreMergeEvictsLikePut(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 3; i++ {
		if err := s.Merge(fmt.Sprintf("%032x", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("capacity-2 store holds %d after 3 merges", s.Len())
	}
	if s.Contains(fmt.Sprintf("%032x", 0)) {
		t.Fatal("LRU entry survived merge-driven eviction")
	}
}
