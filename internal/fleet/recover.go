package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"

	"relperf"
	"relperf/internal/pool"
	"relperf/internal/report"
	"relperf/internal/wal"
)

// ReplayCounts reports what a replay restored.
type ReplayCounts struct {
	Specs   int // specs retained
	Results int // results merged
	Tasks   int // grid task records returned to the caller
}

// validate is the one check every restored or replicated record passes.
// A spec must resolve through the declarative schema to the fingerprint it
// was written under; a mismatch means the engine changed under the log,
// and a recompute under the old identity would break determinism. A
// result must pass report.Canonical: a schema-valid document that is the
// encoding of its own result, so a respelled number or an added space is
// refused even under a valid CRC. A task record is the coordinator's and
// passes as is.
func validate(rec wal.Record, suiteSeed uint64) error {
	switch rec.Type {
	case wal.TypeSpec:
		spec, err := relperf.ParseStudySpec(rec.Data)
		if err != nil {
			return err
		}
		cfg, err := spec.Config()
		if err != nil {
			return err
		}
		_, fp, err := relperf.NewKeyedStudy(cfg, suiteSeed)
		if err != nil {
			return err
		}
		if fp != rec.Fingerprint {
			return fmt.Errorf("spec resolves to fingerprint %s (schema or engine changed); remove the log and resubmit", fp)
		}
	case wal.TypeResult:
		if _, err := report.Canonical(rec.Data); err != nil {
			return err
		}
	case wal.TypeTask:
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
	return nil
}

// replayChunk is how many records one parallel validation unit takes.
const replayChunk = 64

// ReplayWAL restores records — a WAL tail, a checkpoint or a replica push
// — into the store. All are validated first, in parallel, and none is
// applied unless all pass; the error names the lowest failing record's
// index, fingerprint and byte offset. Then specs are retained and results
// merged in file order: bytes that disagree with the store's are an
// ErrMergeConflict, an absorbed record is an idempotent no-op. Task
// records are returned, in order, for the grid coordinator. Call before
// SetWAL: replay must not re-journal what the log already holds.
func ReplayWAL(store *Store, suiteSeed uint64, recs []wal.Record) (ReplayCounts, []wal.Record, error) {
	var counts ReplayCounts
	errs := make([]error, len(recs))
	_ = pool.ForEach(context.Background(), nil, (len(recs)+replayChunk-1)/replayChunk, 0, func(c int) error {
		for i := c * replayChunk; i < min(len(recs), (c+1)*replayChunk); i++ {
			errs[i] = validate(recs[i], suiteSeed)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return counts, nil, fmt.Errorf("fleet: %w", &wal.RecordError{Index: i, Fingerprint: recs[i].Fingerprint, Offset: recs[i].Offset, Err: err})
		}
	}
	var tasks []wal.Record
	for i, rec := range recs {
		var err error
		switch rec.Type {
		case wal.TypeSpec:
			err = store.PutSpec(rec.Fingerprint, rec.Data)
			counts.Specs++
		case wal.TypeResult:
			err = store.Merge(rec.Fingerprint, rec.Data)
			counts.Results++
		case wal.TypeTask:
			tasks = append(tasks, rec)
			counts.Tasks++
		}
		if err != nil {
			return counts, tasks, fmt.Errorf("fleet: %w", &wal.RecordError{Index: i, Fingerprint: rec.Fingerprint, Offset: rec.Offset, Err: err})
		}
	}
	return counts, tasks, nil
}

// ReadCheckpoint reads a checkpoint written for seed (SnapshotCut's bytes)
// with wal.Read, which refuses any torn or corrupt frame and, by name, a
// checkpoint in the relperf/wal/v1 log format. A v1 JSON snapshot, the
// format before checkpoints were logs, is refused by name too: no frame
// length starts with '{', so the first byte tells them apart.
func ReadCheckpoint(r io.Reader, seed uint64) ([]wal.Record, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if b, _ := br.Peek(1); len(b) == 1 && b[0] == '{' {
		return nil, errors.New("fleet: a relperf/fleet-snapshot/v1 JSON snapshot, a format this version no longer reads; move it aside and restart, then resubmit its studies")
	}
	recs, err := wal.Read(br, seed)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return recs, nil
}

// LoadSnapshot restores a checkpoint (ReadCheckpoint, then ReplayWAL) and
// returns how many of its results are retained afterwards: a bounded store
// may LRU-evict some during the replay, and those are not servable.
func (s *Store) LoadSnapshot(r io.Reader, seed uint64) (int, error) {
	recs, err := ReadCheckpoint(r, seed)
	if err != nil {
		return 0, err
	}
	if _, _, err := ReplayWAL(s, seed, recs); err != nil {
		return 0, err
	}
	retained := 0
	for _, rec := range recs {
		if rec.Type == wal.TypeResult && s.Contains(rec.Fingerprint) {
			retained++
		}
	}
	return retained, nil
}

// MergeSnapshot absorbs a pushed checkpoint into a live standby store
// like LoadSnapshot: a corrupt push changes nothing, new records are
// journaled, and held results must match byte for byte (ErrMergeConflict
// — a push never overwrites). Returns how many results were applied.
func (s *Store) MergeSnapshot(r io.Reader, seed uint64) (int, error) {
	recs, err := ReadCheckpoint(r, seed)
	if err != nil {
		return 0, err
	}
	counts, _, err := ReplayWAL(s, seed, recs)
	return counts.Results, err
}
