package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"relperf/internal/faultpoint"
)

// v1Envelope is a record as relperf/wal/v1 wrote it: a JSON envelope
// around the data. The v2 reader must refuse it, never decode it.
func v1Envelope(rec Record) []byte {
	return fmt.Appendf(nil, `{"type":%q,"fp":%q,"data":%s}`, rec.Type, rec.Fingerprint, rec.Data)
}

func testRecord(i int) Record {
	return Record{
		Type:        TypeResult,
		Fingerprint: fmt.Sprintf("%032x", i),
		Data:        json.RawMessage(fmt.Sprintf(`{"i":%d,"pad":"%064d"}`, i, i)),
	}
}

// appendAt appends rec to l and returns it with the Offset a reader will
// report for it: the log's size before the append.
func appendAt(t *testing.T, l *Log, rec Record) Record {
	t.Helper()
	rec.Offset = l.Size()
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// writeLog creates a log at path with n records and returns the records.
func writeLog(t *testing.T, path string, seed uint64, n int) []Record {
	t.Helper()
	l, recs, err := Open(path, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := make([]Record, n)
	for i := range want {
		want[i] = appendAt(t, l, testRecord(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	want := writeLog(t, path, 7, 5)

	l, got, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Appends continue after recovery and a third open sees everything.
	extra := appendAt(t, l, testRecord(99))
	l.Close()
	l2, got2, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got2) != 6 || !reflect.DeepEqual(got2[5], extra) {
		t.Fatalf("after append+reopen got %d records", len(got2))
	}
}

func TestSeedMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeLog(t, path, 7, 2)
	if _, _, err := Open(path, 8, t.Logf); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("log written under seed 7 opened under seed 8: %v, want ErrSeedMismatch", err)
	}
}

// TestResetCompacts: compacting at the current size resets the log to its
// header, and later appends land on the fresh header.
func TestResetCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := l.Size()
	if err := l.CompactTo(l.Size(), 7); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= grown {
		t.Fatalf("compaction to the header did not shrink the log: %d -> %d", grown, l.Size())
	}
	// Post-reset appends land on the fresh header.
	if err := l.Append(testRecord(5)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recs, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Fingerprint != testRecord(5).Fingerprint {
		t.Fatalf("after reset+append, replay = %+v", recs)
	}
}

// TestCompactToKeepsPostCutRecords is the lost-update regression: records
// appended after the snapshot's cut point was captured must survive
// compaction — CompactTo drops exactly the absorbed prefix, never an
// acknowledged tail.
func TestCompactToKeepsPostCutRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut := l.Size()
	// These land between "snapshot captured" and "log compacted" — the
	// window the checkpoint race lived in.
	late := []Record{testRecord(100), testRecord(101)}
	for _, rec := range late {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	grown := l.Size()
	if err := l.CompactTo(cut, 7); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= grown {
		t.Fatalf("CompactTo did not shrink the log: %d -> %d", grown, l.Size())
	}
	// Post-compaction appends land on the rewritten file.
	extra := testRecord(102)
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recs, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	want := append(late, extra)
	for i := range recs {
		recs[i].Offset = 0 // compaction moved every frame
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("after compaction, replay =\n %+v\nwant\n %+v", recs, want)
	}
}

// TestCompactToEmptyTail: compacting at the current size leaves a
// header-only log, the Reset equivalent.
func TestCompactToEmptyTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CompactTo(l.Size(), 7); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recs, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("full compaction left %d records", len(recs))
	}
}

// TestCompactToRenameFaultLeavesLogIntact: a compaction that fails before
// its rename leaves the old log whole (every record still recoverable),
// no .compact litter, and the log still appendable.
func TestCompactToRenameFaultLeavesLogIntact(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut := l.Size()
	faultpoint.Arm("wal.compact.rename", faultpoint.Error, 1)
	if err := l.CompactTo(cut, 7); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("compaction under injected rename fault = %v, want injected error", err)
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed compaction left a .compact file behind")
	}
	if err := l.Append(testRecord(3)); err != nil {
		t.Fatalf("append after failed compaction: %v", err)
	}
	l.Close()
	_, recs, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("failed compaction lost records: replayed %d, want 4", len(recs))
	}
}

func TestAppendSyncFaultRollsBack(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	before := l.Size()
	faultpoint.Arm("wal.append.sync", faultpoint.Error, 1)
	if err := l.Append(testRecord(1)); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("append under failed fsync = %v, want injected error", err)
	}
	if l.Size() != before {
		t.Fatalf("failed append moved the durable size: %d -> %d", before, l.Size())
	}
	// The failed record must be invisible to recovery and the log usable.
	if err := l.Append(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recs, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Fingerprint != testRecord(2).Fingerprint {
		t.Fatalf("replay after failed append = %+v", recs)
	}
}

func TestAppendWriteFaultInjectsError(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, 7, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	faultpoint.Arm("wal.append.write", faultpoint.Error, 1)
	if err := l.Append(testRecord(0)); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("append = %v, want injected error", err)
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatalf("append after disarm: %v", err)
	}
}

// TestTornTailRecoveryProperty is the crash-consistency property test:
// whatever random truncation or bit-flip lands on the file, Open must
// never panic, must recover a strict prefix of the appended records, and
// must leave a log that accepts appends and round-trips them.
func TestTornTailRecoveryProperty(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.log")
	want := writeLog(t, base, 7, 8)
	clean, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		b := append([]byte(nil), clean...)
		if trial%2 == 0 {
			b = b[:rng.Intn(len(b)+1)] // torn tail: crash mid-write
		} else {
			b[rng.Intn(len(b))] ^= 1 << rng.Intn(8) // media corruption
		}
		path := filepath.Join(dir, "trial.log")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		// Every corruption is CRC-detectable (the checksum covers each
		// payload, header included), so recovery must always succeed —
		// worst case by truncating back to an empty log.
		l, recs, err := Open(path, 7, func(string, ...any) {})
		if err != nil {
			t.Fatalf("trial %d: Open failed: %v", trial, err)
		}
		if len(recs) > len(want) {
			t.Fatalf("trial %d: recovered %d records from %d appended", trial, len(recs), len(want))
		}
		for i, rec := range recs {
			if !reflect.DeepEqual(rec, want[i]) {
				t.Fatalf("trial %d: record %d mutated:\n got %+v\nwant %+v", trial, i, rec, want[i])
			}
		}
		// Recovery leaves a working log: append, reopen, see prefix+1.
		extra := testRecord(1000 + trial)
		extra.Offset = l.Size()
		if err := l.Append(extra); err != nil {
			t.Fatalf("trial %d: append after recovery: %v", trial, err)
		}
		l.Close()
		_, recs2, err := Open(path, 7, func(string, ...any) {})
		if err != nil {
			t.Fatalf("trial %d: reopen after recovery: %v", trial, err)
		}
		if len(recs2) != len(recs)+1 || !reflect.DeepEqual(recs2[len(recs)], extra) {
			t.Fatalf("trial %d: reopen saw %d records, want %d", trial, len(recs2), len(recs)+1)
		}
	}
}

// decodeFrames reads b as a frame sequence through readFrame, the reader
// recovery uses. It returns the decoded payloads, the length of the clean
// prefix, and the first bad frame's error (nil when the whole buffer
// parsed).
func decodeFrames(t *testing.T, b []byte) (payloads [][]byte, clean int, bad error) {
	br := bufio.NewReader(bytes.NewReader(b))
	for {
		p, err := readFrame(br)
		if err == io.EOF {
			return payloads, clean, nil
		}
		if err != nil {
			var fe *frameError
			if !errors.As(err, &fe) {
				t.Fatalf("in-memory read failed with a non-frame error: %v", err)
			}
			return payloads, clean, err
		}
		payloads = append(payloads, p)
		clean += frameOverhead + len(p)
	}
}

// FuzzWALDecode asserts the frame reader never panics and that decoding
// is a re-encode fixed point: re-framing the recovered payloads and
// decoding again yields the identical payloads, cleanly. It also holds the
// strict checkpoint reader to the recovering one: Read never panics, and
// it accepts an input exactly when Open keeps every frame of it without
// truncating, returning the same records.
func FuzzWALDecode(f *testing.F) {
	// Refusal inputs: v1 envelopes without a header, and input that is
	// no log at all.
	var valid []byte
	for i := 0; i < 3; i++ {
		valid = appendFrame(valid, v1Envelope(testRecord(i)))
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])          // torn tail
	f.Add([]byte{})                      // empty
	f.Add([]byte("not a wal at all"))    // garbage
	f.Add(appendFrame(nil, []byte("x"))) // single tiny frame
	// v2 logs: valid, torn, bit-flipped, and one whose last record has a
	// type byte no version wrote (its CRC recomputed, so only the record
	// decoder can refuse it).
	const seed = 7
	log := AppendHeader(nil, seed)
	for i := 0; i < 3; i++ {
		log, _ = AppendRecord(log, testRecord(i))
	}
	f.Add(log)
	f.Add(log[:len(log)-5]) // torn checkpoint
	flip := append([]byte(nil), log...)
	flip[len(flip)-20] ^= 0x10
	f.Add(flip)
	last, _ := AppendRecord(nil, testRecord(3))
	last[frameOverhead] = 0x7f
	f.Add(appendFrame(append([]byte(nil), log...), last[frameOverhead:]))
	// Inputs run one at a time per fuzz process, so one file serves all.
	path := filepath.Join(f.TempDir(), "fuzz.log")
	f.Fuzz(func(t *testing.T, b []byte) {
		payloads, clean, bad := decodeFrames(t, b)
		if clean > len(b) || clean < 0 {
			t.Fatalf("clean prefix %d out of range for %d bytes", clean, len(b))
		}
		if bad == nil && clean != len(b) {
			t.Fatalf("clean parse consumed %d of %d bytes", clean, len(b))
		}
		var again []byte
		for _, p := range payloads {
			again = appendFrame(again, p)
		}
		payloads2, clean2, bad2 := decodeFrames(t, again)
		if bad2 != nil {
			t.Fatalf("re-encoded frames do not decode: %v", bad2)
		}
		if clean2 != len(again) || len(payloads2) != len(payloads) {
			t.Fatalf("re-encode changed shape: %d/%d payloads", len(payloads2), len(payloads))
		}
		for i := range payloads {
			if !bytes.Equal(payloads[i], payloads2[i]) {
				t.Fatalf("payload %d changed across re-encode", i)
			}
		}

		recs, rerr := Read(bytes.NewReader(b), seed)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, orecs, oerr := Open(path, seed, nil)
		kept := oerr == nil && len(b) > 0 && !l.recoveredTruncation
		if l != nil {
			l.Close()
		}
		if (rerr == nil) != kept {
			t.Fatalf("Read error %v, but Open kept every frame = %v (open error %v)", rerr, kept, oerr)
		}
		if rerr == nil && !reflect.DeepEqual(recs, orecs) {
			t.Fatalf("Read and Open disagree on the records:\n %+v\n %+v", recs, orecs)
		}
	})
}

// TestReadRefusesWhatOpenRepairs: the strict checkpoint reader returns a
// clean image's records, offsets included, and refuses every input Open
// would repair or refuse — empty, headerless, torn, bit-flipped, a
// payload with an unknown type byte — with the record named, and a foreign seed with
// ErrSeedMismatch.
func TestReadRefusesWhatOpenRepairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	want := writeLog(t, path, 7, 3)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(clean), 7)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Read(clean) = %+v, %v; want %+v", got, err, want)
	}
	if _, err := Read(bytes.NewReader(clean), 8); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("foreign seed: %v, want ErrSeedMismatch", err)
	}
	last := want[2]
	flip := append([]byte(nil), clean...)
	flip[len(flip)-3] ^= 1
	notRecord := appendFrame(append([]byte(nil), clean...), []byte{0x7f, 0, '{'})
	for _, c := range []struct {
		name  string
		data  []byte
		index int
		fp    string
		off   int64
	}{
		{"empty", nil, -1, "", 0},
		{"headerless", clean[last.Offset:], -1, "", 0},
		{"torn", clean[:len(clean)-3], 2, last.Fingerprint, last.Offset},
		{"bit-flip", flip, 2, last.Fingerprint, last.Offset},
		{"not-a-record", notRecord, 3, "", int64(len(clean))},
	} {
		_, err := Read(bytes.NewReader(c.data), 7)
		var re *RecordError
		if !errors.As(err, &re) || re.Index != c.index || re.Fingerprint != c.fp || re.Offset != c.off {
			t.Fatalf("%s: Read = %v, want record %d (%q) at offset %d named", c.name, err, c.index, c.fp, c.off)
		}
	}
}

// TestOpenRefusesForeignFile: a file whose first frame is not this
// schema's header — text, a v1 log, a v2 record where the header belongs —
// is refused by name, and its bytes are left exactly as they were. Open
// used to truncate such a file to a fresh header.
func TestOpenRefusesForeignFile(t *testing.T) {
	dir := t.TempDir()
	v1 := appendFrame(nil, []byte(`{"schema":"relperf/wal/v1","seed":7}`))
	v1 = appendFrame(v1, v1Envelope(testRecord(0)))
	rec, _ := AppendRecord(nil, testRecord(0))
	for _, c := range []struct {
		name, data, want string
	}{
		{"text", "# relperfd notes\nnot a log at all\n", "not a relperf WAL"},
		{"v1-log", string(v1), "relperf/wal/v1"},
		{"headerless", string(rec), "not a relperf WAL"},
		{"short-garbage", "abc", "not a relperf WAL"},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		l, _, err := Open(path, 7, t.Logf)
		if err == nil {
			l.Close()
			t.Fatalf("%s: opened as a log", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: %v, want it to say %q", c.name, err, c.want)
		}
		if got, _ := os.ReadFile(path); string(got) != c.data {
			t.Fatalf("%s: refused file changed: %q -> %q", c.name, c.data, got)
		}
	}
}

// TestOpenRepairsItsOwnHeader: a header a crash cut short, or one with a
// single damaged byte, is this log's own and is repaired to a fresh log.
func TestOpenRepairsItsOwnHeader(t *testing.T) {
	dir := t.TempDir()
	hdr := AppendHeader(nil, 7)
	flipped := append([]byte(nil), hdr...)
	flipped[frameOverhead+3] ^= 0x04
	rec, _ := AppendRecord(nil, testRecord(0))
	for name, data := range map[string][]byte{
		"torn-length":  hdr[:3],
		"torn-payload": hdr[:len(hdr)-4],
		"flipped":      append(flipped, rec...),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, 7, t.Logf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l.Close()
		if got, _ := os.ReadFile(path); len(recs) != 0 || !bytes.Equal(got, hdr) {
			t.Fatalf("%s: repaired to %q with %d records, want a fresh header", name, got, len(recs))
		}
	}
}

// TestRecordCodec: every record type round-trips through the v2 payload
// with Data aliasing the frame, and the encoder refuses what the payload
// cannot hold.
func TestRecordCodec(t *testing.T) {
	for _, typ := range []string{TypeSpec, TypeResult, TypeTask} {
		want := Record{Type: typ, Fingerprint: "0123456789abcdef0123456789abcdef", Data: []byte(`{"k":1}`)}
		frame, err := AppendRecord([]byte("prefix"), want)
		if err != nil {
			t.Fatal(err)
		}
		p := frame[len("prefix")+frameOverhead:]
		got, err := decodeRecord(p)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, %v; want %+v", typ, got, err, want)
		}
		if &got.Data[0] != &p[len(p)-len(want.Data)] {
			t.Fatalf("%s: decoded data is a copy, not the frame's bytes", typ)
		}
		if claimedFingerprint(p[:recordOverhead+10]) != "" || claimedFingerprint(p) != want.Fingerprint {
			t.Fatalf("%s: claimed fingerprint wrong", typ)
		}
	}
	if _, err := AppendRecord(nil, Record{Type: "mystery"}); err == nil {
		t.Fatal("unknown type encoded")
	}
	if _, err := AppendRecord(nil, Record{Type: TypeSpec, Fingerprint: strings.Repeat("f", 256)}); err == nil {
		t.Fatal("a 256-byte fingerprint encoded")
	}
	for _, p := range [][]byte{{}, {2}, {0, 0}, {4, 0}, {2, 5, 'a'}} {
		if _, err := decodeRecord(p); err == nil {
			t.Fatalf("payload %q decoded", p)
		}
	}
}
