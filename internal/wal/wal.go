// Package wal is the durable write-ahead journal of the control plane: an
// append-only, per-record-checksummed, fsync'd log of control-plane events
// (spec retained, result merged, task dispatched) that the fleet store and
// the grid coordinator write before acking anything — so a `kill -9` at
// any instant loses at most the record being appended, never one that was
// acknowledged.
//
// On-disk format (relperf/wal/v2): a sequence of frames, each
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload
//
// The first frame is a JSON header pinning the schema and the suite seed;
// a log written under one seed refuses to open under another (the
// fingerprints it names would address different bytes). Every later
// payload is one binary Record:
//
//	type byte | fingerprint length byte | fingerprint | data
//
// with data verbatim to the end of the payload, so decoding a record reads
// two bytes and slices the rest. A checkpoint is the same format: a
// compacted log, written whole (AppendHeader, then record frames) and read
// whole (Read). One reader serves both. Open reads until the first bad
// frame or record — a length that overruns the file, an oversized length,
// a checksum mismatch, a payload that is not a record — and truncates
// there, loudly: a torn tail costs exactly the un-acked suffix. Open never
// truncates a file it did not write: a first frame that is intact but not
// this schema's header (a v1 log, a text file) is refused by name and the
// file left as it is. Read repairs nothing: a checkpoint is published by
// atomic rename, so a bad frame in it is corruption. Once a checkpoint has
// absorbed the log up to a cut point, CompactTo rewrites the log
// (atomically) as a fresh header plus what was appended after it.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"relperf/internal/faultpoint"
)

// Schema identifies the header record of a v2 log.
const Schema = "relperf/wal/v2"

// Record types written by the control plane.
const (
	// TypeSpec is a retained declarative study spec (Data: spec JSON).
	TypeSpec = "spec"
	// TypeResult is a merged study result (Data: canonical result JSON).
	TypeResult = "result"
	// TypeTask is a grid dispatch journal entry (Data: TaskRecord JSON).
	TypeTask = "task"
)

// typeNames maps a record payload's type byte to its Type; 0 and every
// byte past the table are not record types.
var typeNames = [...]string{1: TypeSpec, 2: TypeResult, 3: TypeTask}

// typeByte returns the type byte of a record Type, or 0 for none.
func typeByte(t string) byte {
	for b, name := range typeNames {
		if name != "" && name == t {
			return byte(b)
		}
	}
	return 0
}

// frameOverhead is the per-record framing cost: length + CRC.
const frameOverhead = 8

// recordOverhead is a record payload's fixed part: type and fp length.
const recordOverhead = 2

// maxPayload bounds one record; a recovered length beyond it is treated
// as corruption, not as an instruction to allocate gigabytes.
const maxPayload = 64 << 20

// Record is one logged control-plane event.
type Record struct {
	// Type tags the event (TypeSpec, TypeResult, TypeTask).
	Type string
	// Fingerprint is the study the event concerns, when it concerns one
	// (at most 255 bytes).
	Fingerprint string
	// Data is the event payload, verbatim (spec JSON, result JSON, task
	// record JSON). A record read back aliases the frame it was read from.
	Data json.RawMessage
	// Offset is the byte offset of the record's frame in the file it was
	// read from. It names the record in errors and is never written.
	Offset int64
}

// ErrSeedMismatch is returned when a log or checkpoint was written under a
// different suite seed: fingerprints address results only together with
// the seed, so absorbing another seed's records would silently break the
// determinism contract.
var ErrSeedMismatch = errors.New("wal: seed mismatch")

// RecordError names the record at which reading a log or checkpoint
// stopped, and why. Index counts records from 0, after the header; the
// header itself is Index -1.
type RecordError struct {
	Index       int
	Fingerprint string // as far as the record's frame still says
	Offset      int64  // of the record's frame
	Err         error
}

func (e *RecordError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("header at byte offset %d: %v", e.Offset, e.Err)
	}
	return fmt.Sprintf("record %d (fingerprint %q) at byte offset %d: %v", e.Index, e.Fingerprint, e.Offset, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// header is the first record of every log.
type header struct {
	Schema string `json:"schema"`
	Seed   uint64 `json:"seed"`
}

// AppendHeader appends the header frame of a log for seed to buf.
func AppendHeader(buf []byte, seed uint64) []byte {
	p, _ := json.Marshal(header{Schema: Schema, Seed: seed}) // cannot fail
	return appendFrame(buf, p)
}

// appendFrame appends a frame around payload to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// AppendRecord appends rec's frame to buf: the one record encoder, shared
// by Append and by the fleet store, which keeps each record's frame and
// writes checkpoints by copying those frames — so the log and a checkpoint
// hold the same bytes for the same record. The data is copied once, into
// place after the frame header, and the CRC covers it where it lands.
func AppendRecord(buf []byte, rec Record) ([]byte, error) {
	typ := typeByte(rec.Type)
	switch {
	case typ == 0:
		return buf, fmt.Errorf("wal: unknown record type %q", rec.Type)
	case len(rec.Fingerprint) > 255:
		return buf, fmt.Errorf("wal: fingerprint of %d bytes exceeds the 255 byte bound", len(rec.Fingerprint))
	}
	n := recordOverhead + len(rec.Fingerprint) + len(rec.Data)
	if n > maxPayload {
		return buf, fmt.Errorf("wal: record of %d bytes exceeds the %d byte bound", n, maxPayload)
	}
	start := len(buf)
	buf = slices.Grow(buf, frameOverhead+n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, 0, 0, 0, 0, typ, byte(len(rec.Fingerprint)))
	buf = append(append(buf, rec.Fingerprint...), rec.Data...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+frameOverhead:]))
	return buf, nil
}

// decodeRecord decodes a record payload. Data aliases p.
func decodeRecord(p []byte) (Record, error) {
	if len(p) < recordOverhead {
		return Record{}, fmt.Errorf("%d byte payload is not a record", len(p))
	}
	if int(p[0]) >= len(typeNames) || typeNames[p[0]] == "" {
		return Record{}, fmt.Errorf("unknown record type byte 0x%02x", p[0])
	}
	end := recordOverhead + int(p[1])
	if end > len(p) {
		return Record{}, fmt.Errorf("fingerprint of %d bytes overruns the %d byte payload", p[1], len(p))
	}
	return Record{Type: typeNames[p[0]], Fingerprint: string(p[recordOverhead:end]), Data: p[end:]}, nil
}

// frameError describes a torn or corrupt frame — the point where Open
// truncates a log and Read fails. payload is as much of the frame's
// payload as could be read, so the error can still name the record.
type frameError struct {
	msg     string
	payload []byte
}

func (e *frameError) Error() string { return e.msg }

// readFrame reads the next frame from br and returns its payload. It
// returns io.EOF at a clean end of input and a *frameError for a torn or
// corrupt frame: a header or payload the input ends inside, an oversized
// length, or a checksum mismatch. Any other error is a real read error,
// returned as is. Memory is O(one frame), whatever the input; it never
// panics — recovery and the fuzzer both lean on that.
func readFrame(br *bufio.Reader) ([]byte, error) {
	var fh [frameOverhead]byte
	if k, err := io.ReadFull(br, fh[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &frameError{msg: fmt.Sprintf("torn frame header (%d trailing bytes)", k)}
		}
		return nil, err // io.EOF: clean end of input
	}
	n := int(binary.LittleEndian.Uint32(fh[0:4]))
	sum := binary.LittleEndian.Uint32(fh[4:8])
	if n > maxPayload {
		return nil, &frameError{msg: fmt.Sprintf("frame claims %d bytes (corrupt length)", n)}
	}
	payload := make([]byte, n)
	if k, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &frameError{fmt.Sprintf("torn frame (%d byte payload, %d available)", n, k), payload[:k]}
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, &frameError{"checksum mismatch", payload}
	}
	return payload, nil
}

// claimedFingerprint returns the fp a record payload claims, as far as
// payload goes: it sits at a fixed offset before the data, so a torn or
// corrupt frame still names the study it held.
func claimedFingerprint(payload []byte) string {
	if len(payload) < recordOverhead || len(payload) < recordOverhead+int(payload[1]) {
		return ""
	}
	return string(payload[recordOverhead : recordOverhead+int(payload[1])])
}

// readHeader reads the header frame of a log image for seed. A torn or
// corrupt header that is still recognisably this log's own — the bytes
// present differ from the header AppendHeader writes for seed in at most
// one byte, as a crash while creating the log or one damaged byte leaves
// it — is bad, for Open to repair. Anything else is err: a foreign seed
// (ErrSeedMismatch), a read error, or a file this version did not write —
// an intact frame holding another schema's header, or no frame at all —
// which Open must refuse rather than truncate.
func readHeader(br *bufio.Reader, seed uint64) (size int64, bad, err error) {
	want := AppendHeader(nil, seed)
	got, _ := br.Peek(len(want))
	differ := 0
	for i := range got {
		if got[i] != want[i] {
			differ++
		}
	}
	ours := differ <= 1
	p, err := readFrame(br)
	var fe *frameError
	switch {
	case errors.As(err, &fe) && ours:
		return 0, &RecordError{Index: -1, Err: fe}, nil
	case errors.As(err, &fe):
		return 0, nil, &RecordError{Index: -1, Err: fmt.Errorf("not a relperf WAL (%v); left untouched", fe)}
	case err != nil:
		return 0, nil, err // io.EOF (empty input) is the caller's to judge
	}
	var hdr header
	if json.Unmarshal(p, &hdr) != nil || hdr.Schema == "" {
		return 0, nil, &RecordError{Index: -1, Err: errors.New("not a relperf WAL; left untouched")}
	}
	if hdr.Schema != Schema {
		return 0, nil, &RecordError{Index: -1, Err: fmt.Errorf("a %s log, a format this version does not read (it reads %s); left untouched: move it aside and restart, then resubmit its studies", hdr.Schema, Schema)}
	}
	if hdr.Seed != seed {
		return 0, nil, fmt.Errorf("%w: written under seed %d, read under seed %d", ErrSeedMismatch, hdr.Seed, seed)
	}
	return int64(frameOverhead + len(p)), nil, nil
}

// load reads a log image for seed, decoding each record as its frame
// arrives. It returns the records of the clean prefix in file order, the
// byte length of that prefix, and a *RecordError naming the first bad
// frame or record (nil when all of r is clean). A file this version did
// not write, a foreign seed (ErrSeedMismatch) and a read error are err.
func load(r io.Reader, seed uint64) (recs []Record, clean int64, bad, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	clean, bad, err = readHeader(br, seed)
	if err == io.EOF {
		return nil, 0, nil, nil
	}
	if err != nil || bad != nil {
		return nil, 0, bad, err
	}
	for {
		p, err := readFrame(br)
		if err == io.EOF {
			return recs, clean, nil, nil
		}
		var fe *frameError
		if errors.As(err, &fe) {
			return recs, clean, &RecordError{Index: len(recs), Fingerprint: claimedFingerprint(fe.payload), Offset: clean, Err: fe}, nil
		}
		if err != nil {
			return nil, 0, nil, err
		}
		rec, err := decodeRecord(p)
		if err != nil {
			return recs, clean, &RecordError{Index: len(recs), Fingerprint: claimedFingerprint(p), Offset: clean, Err: err}, nil
		}
		rec.Offset = clean
		recs = append(recs, rec)
		clean += int64(frameOverhead + len(p))
	}
}

// Read reads a whole log image for seed — a checkpoint — and returns its
// records, oldest first. Unlike Open it repairs nothing: an empty input, a
// missing or foreign header, a torn or corrupt frame or a record that does
// not decode is a *RecordError, and a foreign seed is ErrSeedMismatch.
// Read accepts an input exactly when Open would keep every frame of it.
func Read(r io.Reader, seed uint64) ([]Record, error) {
	recs, clean, bad, err := load(r, seed)
	switch {
	case err != nil:
		return nil, err
	case bad != nil:
		return nil, bad
	case clean == 0:
		return nil, &RecordError{Index: -1, Err: errors.New("empty input")}
	}
	return recs, nil
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

// Open opens (or creates) the log at path for seed, recovering its
// records. A torn tail — a bad frame, or a clean frame whose payload is
// not a record — is truncated in place and reported through logf, and so
// is a header a crash cut short or one damaged byte spoiled; a header
// written under another seed is an ErrSeedMismatch, and a file whose first
// frame is not this schema's header (a v1 log, a file that is no log) is
// refused by name and left untouched. The records come back
// oldest first, for the caller to replay before attaching the log to live
// components, so replayed events are not re-journaled.
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
	recs, off, bad, err := load(f, seed)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	l := &Log{f: f, path: path, size: off, recoveredTruncation: bad != nil, recoveredRecords: len(recs)}
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
	if l.size > 0 {
		return l, recs, nil
	}
	// Fresh (or headerless) log: write the header frame.
	hdr := AppendHeader(nil, seed)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: writing header of %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: syncing header of %s: %w", path, err)
	}
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, nil, err
	}
	l.size = int64(len(hdr))
	return l, nil, nil
}

// Append journals one record: AppendRecord, then AppendFrame.
func (l *Log) Append(rec Record) error {
	frame, err := AppendRecord(nil, rec)
	if err != nil {
		l.metrics.Load().recordAppend(0, err)
		return err
	}
	return l.AppendFrame(frame)
}

// AppendFrame journals one record frame, as AppendRecord built it: write,
// fsync — in that order, and only a completed fsync makes the append
// succeed. On any failure the file is rolled back to the last durable
// frame, so a failed append never leaves a half-record for recovery to
// trip on while the process lives. The wal.append.* faultpoints fire here.
func (l *Log) AppendFrame(frame []byte) (err error) {
	m := l.metrics.Load()
	start := time.Now()
	defer func() { m.recordAppend(time.Since(start), err) }()

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

// CompactTo compacts the log after a checkpoint: every frame below cut —
// the durable size captured together with the checkpoint state
// (fleet.Store.SnapshotCut) — is dropped, and every record appended after
// the capture survives, so compaction can never discard an acknowledged
// event the checkpoint missed. The compacted log (a fresh header plus the
// surviving tail) is built in a sibling file, fsync'd and renamed into
// place; a crash at any instant leaves either the old complete log or the
// compacted one, and both replay consistently over the new checkpoint
// because replaying an absorbed record is an idempotent no-op. The
// wal.compact.rename faultpoint fires before the rename.
func (l *Log) CompactTo(cut int64, seed uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cut > l.size {
		cut = l.size // defensive: never resurrect rolled-back bytes
	}
	buf := AppendHeader(nil, seed)
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

// Size returns the clean (durable) length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

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
