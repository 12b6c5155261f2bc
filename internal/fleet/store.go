// Package fleet is the multi-study serving subsystem: a Scheduler that runs
// whole suites of studies on one shared worker budget with single-flight
// coalescing, a content-addressed result Store with LRU eviction and
// checkpoint persistence (a compacted write-ahead log), and an HTTP Server
// exposing both — the engine behind the relperfd daemon.
//
// Identity and determinism come from the relperf suite primitives: a
// study is addressed by its canonical config fingerprint, its seed derives
// from (suite seed, fingerprint), and the stored value is the study's
// canonical wire encoding — so a cached, checkpoint-restored or freshly
// computed result for one fingerprint is always the same sequence of bytes.
package fleet

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"

	"relperf/internal/wal"
)

// Store is a content-addressed result cache: canonical wire-encoded study
// results keyed by config fingerprint, with LRU eviction and checkpoint
// persistence (SnapshotCut) so a restarted daemon serves warm results.
// Results enter only through Merge, so a fingerprint never changes bytes
// once stored: every source (a local compute, a grid worker, a WAL replay,
// a checkpoint load or a replica push) either agrees with what is held or
// fails with ErrMergeConflict. Alongside the result blobs it retains the
// declarative spec (wire JSON) of every study submitted through the spec
// layer; specs are tiny, never evicted, and are persisted in checkpoints —
// they are the recipes a restarted daemon uses to recompute results the
// LRU evicted.
//
// Every result and spec is held as its WAL record frame (wal.AppendRecord),
// encoded once when it enters the store: the bytes journaled are those
// bytes, the blob or spec served is the frame's tail, and a checkpoint is
// the header followed by a copy of the held frames — no record is encoded
// or checksummed again.
//
// The read paths a dashboard polls are priced per request, not per store:
// an index page costs O(log n + limit) against a sorted fingerprint list
// the store maintains incrementally, and a result's summary is encoded
// once and kept with its cache entry until that entry is evicted.
// Safe for concurrent use.
type Store struct {
	// writeMu serializes mutators (Merge, PutSpec, checkpoint capture)
	// against each other; mu alone guards visibility. The split is what
	// keeps the hot serving path off the disk: a journaled mutation holds
	// writeMu across its append→visible window but releases mu around the
	// WAL fsync, so Get/Contains/Stats/IndexPage never wait behind I/O —
	// and SnapshotCut, by taking writeMu, captures a checkpoint and a WAL cut
	// point with no acknowledged record falling between them. Lock order:
	// writeMu before mu, never the reverse.
	writeMu  sync.Mutex
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	specs    map[string]framed
	// index is every fingerprint the store knows (the union of items and
	// specs) in ascending order, as of the last settleLocked. Fingerprints
	// that became known since then wait, unsorted, in tail; stale counts
	// evictions that left a fingerprint with neither a result nor a spec
	// since then. Mutators only append and count, so recovery stays
	// O(n log n); the next reader that needs the order settles both in one
	// sort of the tail and one linear merge.
	index []string
	tail  []string
	stale int
	// journal, when attached, receives every newly merged result and
	// newly retained spec — fsync'd before the mutation is visible or
	// acked, so an acknowledged write survives kill -9.
	journal *wal.Log

	hits, misses, evictions uint64
	merges, conflicts       uint64
}

// framed is a record's WAL frame and its data, the frame's tail.
type framed struct {
	frame, data []byte
}

// frameRecord encodes a record's frame once, for the journal, the store
// and every checkpoint.
func frameRecord(typ, fp string, data []byte) (framed, error) {
	frame, err := wal.AppendRecord(nil, wal.Record{Type: typ, Fingerprint: fp, Data: data})
	if err != nil {
		return framed{}, fmt.Errorf("fleet: framing %s %s: %w", typ, fp, err)
	}
	return framed{frame: frame, data: frame[len(frame)-len(data):]}, nil
}

type storeEntry struct {
	fp string
	framed
	// summary is the encoded GET /summary body for blob, built on the
	// first request and dropped with the entry on eviction.
	summary []byte
}

// NewStore returns a store holding at most capacity results (<= 0 means
// unbounded).
func NewStore(capacity int) *Store {
	return &Store{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		specs:    make(map[string]framed),
	}
}

// Get returns the stored encoding for the fingerprint and marks it most
// recently used. The returned slice is shared — callers must not mutate it.
func (s *Store) Get(fp string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[fp]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*storeEntry).data, true
}

// Contains reports whether the fingerprint is cached, without touching the
// hit/miss counters or the LRU recency — the existence probe the scheduler
// uses, so stats and eviction order reflect only results actually served.
func (s *Store) Contains(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[fp]
	return ok
}

// knownLocked reports whether fp has a cached result or a retained spec —
// membership in the index. The caller holds mu.
func (s *Store) knownLocked(fp string) bool {
	if _, ok := s.items[fp]; ok {
		return true
	}
	_, ok := s.specs[fp]
	return ok
}

// putLocked inserts a new entry and applies the capacity bound. The caller
// holds mu and has verified fp is absent.
func (s *Store) putLocked(fp string, rec framed) {
	if !s.knownLocked(fp) {
		s.tail = append(s.tail, fp)
	}
	s.items[fp] = s.ll.PushFront(&storeEntry{fp: fp, framed: rec})
	for s.capacity > 0 && s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		evicted := oldest.Value.(*storeEntry).fp
		delete(s.items, evicted)
		if _, ok := s.specs[evicted]; !ok {
			s.stale++
		}
		s.evictions++
	}
}

// settleLocked brings index up to date: it sorts the tail and merges it
// into the sorted list in one linear pass, dropping duplicates and — when
// an eviction made any — fingerprints the store no longer knows. A
// fingerprint evicted and re-added before the pass sits in both lists
// (or twice in the tail); the duplicate check keeps one copy. The caller
// holds mu.
func (s *Store) settleLocked() {
	if len(s.tail) == 0 && s.stale == 0 {
		return
	}
	sort.Strings(s.tail)
	merged := make([]string, 0, len(s.index)+len(s.tail))
	i, j := 0, 0
	for i < len(s.index) || j < len(s.tail) {
		var fp string
		if j == len(s.tail) || (i < len(s.index) && s.index[i] <= s.tail[j]) {
			fp, i = s.index[i], i+1
		} else {
			fp, j = s.tail[j], j+1
		}
		if n := len(merged); n > 0 && merged[n-1] == fp {
			continue
		}
		if s.stale > 0 && !s.knownLocked(fp) {
			continue
		}
		merged = append(merged, fp)
	}
	s.index, s.tail, s.stale = merged, s.tail[:0], 0
}

// SetWAL attaches a write-ahead journal: from now on every newly merged
// result and newly retained spec is appended (and fsync'd) to the journal
// before it becomes visible, and a failed append fails the operation —
// the store never acks state the journal does not hold. Attach after
// recovery replay, so replayed records are not re-journaled.
func (s *Store) SetWAL(w *wal.Log) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = w
}

// ErrMergeConflict is returned by Merge when two sources disagree on a
// fingerprint's bytes — an engine-version skew or a corrupted transfer that
// must surface loudly, never be papered over by overwriting.
var ErrMergeConflict = errors.New("fleet: store merge conflict")

// Merge stores the encoding under the fingerprint, most recently used,
// and evicts least-recently-used entries beyond the capacity. Merging the
// same bytes again is an idempotent no-op (beyond an LRU recency bump),
// and merging different bytes for an existing fingerprint is an
// ErrMergeConflict — the store never silently replaces a result it already
// serves. One fingerprint must mean one sequence of bytes, whichever node
// computed it.
func (s *Store) Merge(fp string, blob []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	if el, ok := s.items[fp]; ok {
		eq := bytes.Equal(el.Value.(*storeEntry).data, blob)
		if eq {
			s.ll.MoveToFront(el)
			s.merges++
		} else {
			s.conflicts++
		}
		s.mu.Unlock()
		if !eq {
			return fmt.Errorf("%w: fingerprint %s already cached with different bytes", ErrMergeConflict, fp)
		}
		return nil
	}
	journal := s.journal
	s.mu.Unlock()
	// Journal before inserting: a result the WAL does not hold must not
	// become servable, or a crash would un-serve bytes a client already
	// saw. The idempotent path above skips the journal — re-merging known
	// bytes is already durable. mu is released around the framing and the
	// fsync (writeMu still held, so no other mutator interleaves) to keep
	// readers off the disk; the entry becomes visible only after the
	// append succeeded.
	rec, err := frameRecord(wal.TypeResult, fp, blob)
	if err != nil {
		return err
	}
	if journal != nil {
		if err := journal.AppendFrame(rec.frame); err != nil {
			return fmt.Errorf("fleet: journaling result %s: %w", fp, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(fp, rec)
	s.merges++
	return nil
}

// Len returns the number of cached results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Keys returns the cached fingerprints from most to least recently used.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storeEntry).fp)
	}
	return out
}

// IndexEntry is one known study in a store enumeration: a fingerprint with
// flags for what the store holds under it — a cached result blob, a
// retained declarative spec (recomputable after eviction), or both.
type IndexEntry struct {
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
	Spec        bool   `json:"spec"`
}

// IndexPage returns up to limit entries of the store's enumeration —
// every fingerprint it knows, the union of cached results and retained
// specs, in ascending order — starting strictly after cursor (the zero
// cursor starts at the beginning). next is the last returned fingerprint
// when more entries follow, or "" on the last page; passing it back as the
// cursor resumes the walk, and because the order is lexicographic a cursor
// stays a stable resume point even when studies land between pages. A
// page costs O(log n + limit) once the index is settled; the first read
// after mutations also pays the settle. Enumeration does not touch the
// hit/miss counters or LRU recency. A limit below 1 yields an empty page.
func (s *Store) IndexPage(cursor string, limit int) (page []IndexEntry, next string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	start := sort.SearchStrings(s.index, cursor)
	if start < len(s.index) && s.index[start] == cursor {
		start++
	}
	end := min(start+max(limit, 0), len(s.index))
	page = make([]IndexEntry, 0, end-start)
	for _, fp := range s.index[start:end] {
		_, cached := s.items[fp]
		_, spec := s.specs[fp]
		page = append(page, IndexEntry{Fingerprint: fp, Cached: cached, Spec: spec})
	}
	if end > start && end < len(s.index) {
		next = s.index[end-1]
	}
	return page, next
}

// Summary returns the encoded GET /v1/studies/{fp}/summary body (see
// encodeSummary) for blob, the result the caller already holds for fp.
// While fp stays cached the body is built once, kept with its entry and
// returned verbatim afterwards; an entry evicted and merged again builds
// it afresh. If fp is no longer cached the body is built from blob and not
// kept. The encoding runs with mu released, so a cold summary never stalls
// other readers. The returned slice is shared — callers must not mutate
// it. Like Contains, Summary leaves the counters and LRU recency alone:
// the caller's Get already counted the read.
func (s *Store) Summary(fp string, blob []byte) ([]byte, error) {
	s.mu.Lock()
	el, ok := s.items[fp]
	if ok {
		e := el.Value.(*storeEntry)
		if e.summary != nil {
			s.mu.Unlock()
			return e.summary, nil
		}
		blob = e.data
	}
	s.mu.Unlock()
	body, err := encodeSummary(fp, blob)
	if err != nil || !ok {
		return body, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Keep the body only on the entry it was built from: if fp was evicted
	// (and perhaps merged again) meanwhile, that entry is gone with it.
	if cur, ok := s.items[fp]; ok && cur == el {
		e := el.Value.(*storeEntry)
		if e.summary == nil {
			e.summary = body
		}
		return e.summary, nil
	}
	return body, nil
}

// PutSpec retains the declarative wire spec of a study under its
// fingerprint, replacing any previous recipe. Specs are not subject to LRU
// eviction: they are a few hundred bytes each and every retained spec keeps
// one study recomputable forever. With a journal attached the spec is
// WAL-appended (fsync'd) before it is retained; re-putting identical bytes
// is a free no-op either way, so resubmitted suites do not grow the log.
func (s *Store) PutSpec(fp string, spec []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	if prev, ok := s.specs[fp]; ok && bytes.Equal(prev.data, spec) {
		s.mu.Unlock()
		return nil
	}
	journal := s.journal
	s.mu.Unlock()
	// As in Merge: the fsync happens with mu released so readers never
	// wait on it, and writeMu keeps the check-journal-retain sequence
	// atomic against other mutators and checkpoint capture.
	rec, err := frameRecord(wal.TypeSpec, fp, spec)
	if err != nil {
		return err
	}
	if journal != nil {
		if err := journal.AppendFrame(rec.frame); err != nil {
			return fmt.Errorf("fleet: journaling spec %s: %w", fp, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.knownLocked(fp) {
		s.tail = append(s.tail, fp)
	}
	s.specs[fp] = rec
	return nil
}

// Spec returns the retained spec for the fingerprint. The returned slice is
// shared — callers must not mutate it.
func (s *Store) Spec(fp string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	spec, ok := s.specs[fp]
	return spec.data, ok
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Entries   int    `json:"entries"`
	Specs     int    `json:"specs"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Merges    uint64 `json:"merges"`
	Conflicts uint64 `json:"conflicts"`
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries: s.ll.Len(), Specs: len(s.specs),
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions,
		Merges: s.merges, Conflicts: s.conflicts,
	}
}

// SnapshotCut writes the store's checkpoint for seed — a compacted log:
// the wal header, then the held frames of the specs in fingerprint order
// and of the results from least to most recently used (restoring them in
// order rebuilds recency), so equal stores write equal bytes — with a WAL
// cut point. The capture holds the writer lock, so every record below cut
// is in the checkpoint and a record acked after the capture sits at or
// above it: CompactTo(cut) drops exactly what the checkpoint absorbed.
// With no journal the cut is 0. The frames are copied off the locks (they
// are immutable) and are neither re-encoded nor re-checksummed; the error
// is always nil.
func (s *Store) SnapshotCut(seed uint64) ([]byte, int64, error) {
	s.writeMu.Lock()
	s.mu.Lock()
	s.settleLocked()
	frames := make([][]byte, 0, len(s.specs)+s.ll.Len())
	size := 0
	for _, fp := range s.index {
		if spec, ok := s.specs[fp]; ok {
			frames = append(frames, spec.frame)
			size += len(spec.frame)
		}
	}
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*storeEntry)
		frames = append(frames, e.frame)
		size += len(e.frame)
	}
	journal := s.journal
	s.mu.Unlock()
	var cut int64
	if journal != nil {
		cut = journal.Size()
	}
	s.writeMu.Unlock()
	b := wal.AppendHeader(make([]byte, 0, size+64), seed) // 64: the header
	for _, f := range frames {
		b = append(b, f...)
	}
	return b, cut, nil
}
