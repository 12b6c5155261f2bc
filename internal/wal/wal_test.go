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
	"testing"

	"relperf/internal/faultpoint"
)

func testRecord(i int) Record {
	return Record{
		Type:        TypeResult,
		Fingerprint: fmt.Sprintf("%032x", i),
		Data:        json.RawMessage(fmt.Sprintf(`{"i":%d,"pad":"%064d"}`, i, i)),
	}
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
		want[i] = testRecord(i)
		if err := l.Append(want[i]); err != nil {
			t.Fatal(err)
		}
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
	extra := testRecord(99)
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
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
	if _, _, err := Open(path, 8, t.Logf); err == nil {
		t.Fatal("log written under seed 7 opened under seed 8")
	}
}

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
	if err := l.Reset(7); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= grown {
		t.Fatalf("Reset did not shrink the log: %d -> %d", grown, l.Size())
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
		p, err := readFrame(br, int64(clean))
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
// decoding again yields the identical payloads, cleanly.
func FuzzWALDecode(f *testing.F) {
	var valid []byte
	for i := 0; i < 3; i++ {
		p, _ := json.Marshal(testRecord(i))
		valid = AppendFrame(valid, p)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])          // torn tail
	f.Add([]byte{})                      // empty
	f.Add([]byte("not a wal at all"))    // garbage
	f.Add(AppendFrame(nil, []byte("x"))) // single tiny frame
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
			again = AppendFrame(again, p)
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
	})
}
