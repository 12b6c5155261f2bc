// Package wal is the durable write-ahead journal of the control plane: an
// append-only, per-record-checksummed, fsync'd log of control-plane events
// (spec retained, result merged, task dispatched) that the fleet store and
// the grid coordinator write before acking anything — so a `kill -9` at
// any instant loses at most the record being appended, never one that was
// acknowledged.
//
// On-disk format: a sequence of frames, each
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload
//
// The first frame is a header record pinning the schema and the suite
// seed; a log written under one seed refuses to open under another (the
// fingerprints it names would address different bytes). Recovery reads
// frames until the first bad one — a length that overruns the file, an
// oversized length, or a checksum mismatch — and truncates there, loudly:
// a torn tail (the crash landed mid-append) costs exactly the un-acked
// suffix. Compaction is CompactTo: once a snapshot has durably absorbed
// the log's events up to a cut point, the log is rewritten (atomically,
// via rename) as a fresh header plus whatever was appended after the cut.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"relperf/internal/faultpoint"
)

// Schema identifies the header record of a v1 log.
const Schema = "relperf/wal/v1"

// Record types written by the control plane.
const (
	// TypeSpec is a retained declarative study spec (Data: spec JSON).
	TypeSpec = "spec"
	// TypeResult is a merged study result (Data: canonical result JSON).
	TypeResult = "result"
	// TypeTask is a grid dispatch journal entry (Data: TaskRecord JSON).
	TypeTask = "task"
)

// frameOverhead is the per-record framing cost: length + CRC.
const frameOverhead = 8

// maxPayload bounds one record; a recovered length beyond it is treated
// as corruption, not as an instruction to allocate gigabytes.
const maxPayload = 64 << 20

// Record is one logged control-plane event.
type Record struct {
	// Type tags the event (TypeSpec, TypeResult, TypeTask).
	Type string `json:"type"`
	// Fingerprint is the study the event concerns, when it concerns one.
	Fingerprint string `json:"fp,omitempty"`
	// Data is the event payload, verbatim (spec JSON, result JSON, task
	// record JSON).
	Data json.RawMessage `json:"data,omitempty"`
}

// header is the first record of every log.
type header struct {
	Schema string `json:"schema"`
	Seed   uint64 `json:"seed"`
}

// AppendFrame appends one framed payload to buf and returns the extended
// slice.
func AppendFrame(buf, payload []byte) []byte {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// frameError describes a torn or corrupt frame — the point where
// recovery truncates the log.
type frameError struct{ msg string }

func (e *frameError) Error() string { return e.msg }

// readFrame reads the frame at offset off from br and returns its payload.
// It returns io.EOF at a clean end of input and a *frameError for a torn
// or corrupt frame: a header or payload the input ends inside, an
// oversized length, or a checksum mismatch. Any other error is a real read
// error, returned as is. Memory is O(one frame), whatever the input; it
// never panics — recovery and the fuzzer both lean on that.
func readFrame(br *bufio.Reader, off int64) ([]byte, error) {
	var fh [frameOverhead]byte
	if k, err := io.ReadFull(br, fh[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &frameError{fmt.Sprintf("wal: torn frame header at offset %d (%d trailing bytes)", off, k)}
		}
		return nil, err // io.EOF: clean end of input
	}
	n := int(binary.LittleEndian.Uint32(fh[0:4]))
	sum := binary.LittleEndian.Uint32(fh[4:8])
	if n > maxPayload {
		return nil, &frameError{fmt.Sprintf("wal: frame at offset %d claims %d bytes (corrupt length)", off, n)}
	}
	payload := make([]byte, n)
	if k, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &frameError{fmt.Sprintf("wal: torn frame at offset %d (%d byte payload, %d available)", off, n, k)}
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, &frameError{fmt.Sprintf("wal: checksum mismatch at offset %d", off)}
	}
	return payload, nil
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64 // clean length: end of the last durable frame

	// Open-time recovery outcome, folded into the counters when
	// SetMetrics attaches (metrics usually wire up after recovery).
	recoveredTruncation bool
	recoveredRecords    int

	// metrics is an atomic pointer so Append can read it without
	// widening the lock window; nil means uninstrumented.
	metrics atomic.Pointer[Metrics]
}

// Open opens (or creates) the log at path for the given suite seed,
// recovering its records. A torn tail is truncated in place and reported
// through logf; a header written under a different seed is an error. The
// returned records are the recovered events, oldest first — the caller
// replays them before attaching the log to live components, so replayed
// events are not re-journaled.
//
// Recovery streams the file frame by frame rather than slurping it, so
// startup memory stays O(one frame + recovered records), not O(file
// size), however large the log grew between compactions.
func Open(path string, seed uint64, logf func(format string, args ...any)) (*Log, []Record, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	total := int64(0)
	if fi, err := f.Stat(); err == nil {
		total = fi.Size()
	}

	// One frame per iteration (readFrame). Any torn or corrupt frame — or a
	// clean frame whose payload does not parse back (corruption the CRC
	// could not see: it guards the frame, not our encoding) — marks the
	// truncation point; only a real read error fails the open.
	br := bufio.NewReaderSize(f, 1<<16)
	var recs []Record
	var bad error
	var off int64
	first := true
	for bad == nil {
		payload, err := readFrame(br, off)
		if err == io.EOF {
			break // clean end of log
		}
		if err != nil {
			var fe *frameError
			if errors.As(err, &fe) {
				bad = err
				break
			}
			f.Close()
			return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		if first {
			var hdr header
			if err := json.Unmarshal(payload, &hdr); err != nil || hdr.Schema != Schema {
				bad = fmt.Errorf("wal: %s has no valid header (treating as empty)", path)
				break
			}
			if hdr.Seed != seed {
				f.Close()
				return nil, nil, fmt.Errorf("wal: %s was written under seed %d, log opens under seed %d", path, hdr.Seed, seed)
			}
			first = false
		} else {
			var rec Record
			if err := json.Unmarshal(payload, &rec); err != nil {
				bad = fmt.Errorf("wal: record %d in %s does not parse: %v", len(recs)+1, path, err)
				break
			}
			recs = append(recs, rec)
		}
		off += int64(frameOverhead + len(payload))
	}
	l := &Log{f: f, path: path, size: off}
	l.recoveredTruncation = bad != nil
	l.recoveredRecords = len(recs)
	if bad != nil {
		logf("wal: RECOVERY %s: %v — truncating to last durable record at byte %d (%d records kept, %d bytes dropped)",
			path, bad, off, len(recs), total-off)
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: syncing truncated %s: %w", path, err)
		}
	}
	// Truncate does not move the file offset (the streamed read left it
	// past the durable end), so position explicitly before any write.
	if _, err := f.Seek(l.size, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seeking %s: %w", path, err)
	}
	if l.size == 0 {
		// Fresh (or headerless) log: write the header frame.
		if err := l.writeHeader(seed); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := syncDir(path); err != nil {
			f.Close()
			return nil, nil, err
		}
		return l, nil, nil
	}
	return l, recs, nil
}

// writeHeader writes the header frame at the current size (0) and syncs.
// The caller holds no lock yet (Open) or the lock (Reset).
func (l *Log) writeHeader(seed uint64) error {
	p, err := json.Marshal(header{Schema: Schema, Seed: seed})
	if err != nil {
		return err
	}
	frame := AppendFrame(nil, p)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: writing header of %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing header of %s: %w", l.path, err)
	}
	l.size = int64(len(frame))
	return nil
}

// Append journals one record: frame, write, fsync — in that order, and
// only a completed fsync makes the append succeed. On any failure the
// file is rolled back to the last durable frame, so a failed append never
// leaves a half-record for recovery to trip on while the process lives.
// The wal.append.* faultpoints fire here.
func (l *Log) Append(rec Record) (err error) {
	m := l.metrics.Load()
	start := time.Now()
	defer func() { m.recordAppend(time.Since(start), err) }()
	p, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("wal: encoding record: %w", err)
	}
	if len(p) > maxPayload {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d byte bound", len(p), maxPayload)
	}
	frame := AppendFrame(nil, p)

	l.mu.Lock()
	defer l.mu.Unlock()
	switch faultpoint.Fire("wal.append.write") {
	case faultpoint.Error:
		return fmt.Errorf("%w at wal.append.write", faultpoint.ErrInjected)
	case faultpoint.Crash:
		faultpoint.Kill("wal.append.write")
	case faultpoint.Tear:
		// The torn-write simulation: half the frame reaches the disk,
		// then the machine dies. Recovery must truncate exactly here.
		_, _ = l.f.Write(frame[:len(frame)/2])
		_ = l.f.Sync()
		faultpoint.Kill("wal.append.write(tear)")
	}
	if _, err := l.f.Write(frame); err != nil {
		l.rollback()
		return fmt.Errorf("wal: appending to %s: %w", l.path, err)
	}
	if err := faultpoint.Hit("wal.append.sync"); err != nil {
		l.rollback()
		return err
	}
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		l.rollback()
		return fmt.Errorf("wal: syncing %s: %w", l.path, err)
	}
	m.recordFsync(time.Since(syncStart))
	l.size += int64(len(frame))
	return nil
}

// rollback restores the file to the last durable frame after a failed
// append. Best effort — if even the truncate fails, the next Open's
// torn-tail recovery handles it.
func (l *Log) rollback() {
	_ = l.f.Truncate(l.size)
	_, _ = l.f.Seek(l.size, io.SeekStart)
}

// CompactTo compacts the log after a snapshot: every frame below cut —
// the durable size captured together with the snapshot state
// (fleet.Store.SnapshotCut) — is dropped, and every record appended after
// the capture survives, so compaction can never discard an acknowledged
// event the snapshot missed. The compacted log (a fresh header plus the
// surviving tail) is built in a sibling file, fsync'd and renamed into
// place; a crash at any instant leaves either the old complete log or the
// compacted one, and both replay consistently over the new snapshot
// because replaying an absorbed record is an idempotent no-op. The
// wal.compact.rename faultpoint fires before the rename.
func (l *Log) CompactTo(cut int64, seed uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cut > l.size {
		cut = l.size // defensive: never resurrect rolled-back bytes
	}
	p, err := json.Marshal(header{Schema: Schema, Seed: seed})
	if err != nil {
		return err
	}
	buf := AppendFrame(nil, p)
	if cut < l.size {
		tail := make([]byte, l.size-cut)
		if _, err := l.f.ReadAt(tail, cut); err != nil {
			return fmt.Errorf("wal: reading surviving tail of %s: %w", l.path, err)
		}
		buf = append(buf, tail...)
	}
	tmp := l.path + ".compact"
	nf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", tmp, err)
	}
	fail := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := nf.Write(buf); err != nil {
		return fail(fmt.Errorf("wal: writing %s: %w", tmp, err))
	}
	if err := nf.Sync(); err != nil {
		return fail(fmt.Errorf("wal: syncing %s: %w", tmp, err))
	}
	if err := faultpoint.Hit("wal.compact.rename"); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fail(fmt.Errorf("wal: renaming %s: %w", tmp, err))
	}
	if err := syncDir(l.path); err != nil {
		// The rename happened; the open fd already points at the new
		// inode, so adopt it — worst case a crash resurfaces the old log,
		// which replays consistently.
		l.f.Close()
		l.f, l.size = nf, int64(len(buf))
		return err
	}
	l.f.Close()
	l.f, l.size = nf, int64(len(buf))
	return nil
}

// Reset compacts the log back to its header — called after a snapshot has
// durably absorbed every logged event and no concurrent appender exists
// (tests, single-threaded shutdown). Live checkpoints use CompactTo,
// which keeps records appended after the snapshot capture.
func (l *Log) Reset(seed uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncating %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seeking %s: %w", l.path, err)
	}
	l.size = 0
	return l.writeHeader(seed)
}

// Size returns the clean (durable) length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// syncDir fsyncs the directory containing path, making a freshly created
// file's existence itself durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("wal: opening parent of %s: %w", path, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing parent of %s: %w", path, err)
	}
	return nil
}
