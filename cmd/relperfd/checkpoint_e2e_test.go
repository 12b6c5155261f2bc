package main

// Process-level tests of the checkpoint: a damaged checkpoint stops the
// real binary before it serves, with the damaged record named, and a
// coordinator's dispatch journal survives the compaction that drops its
// task records from the WAL.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"relperf/internal/wal"
)

// durableGeneration starts a durable daemon on walPath/ckPath with extra
// args, submits daemonSuite, reads every result and stops it with SIGTERM,
// which writes the shutdown checkpoint.
func durableGeneration(t *testing.T, bin, walPath, ckPath string, extra ...string) *daemon {
	t.Helper()
	d := startDaemon(t, bin, append([]string{"-seed", "7", "-workers", "2", "-wal", walPath, "-snapshot", ckPath}, extra...)...)
	for _, fp := range submitSuite(t, d) {
		if code, body := d.get(t, "/v1/studies/"+fp); code != 200 {
			t.Fatalf("GET %s: %d %s", fp, code, body)
		}
	}
	return d
}

// TestCheckpointCorruptionStopsDaemon: each kind of checkpoint damage
// makes the daemon exit non-zero without serving, and its error names the
// file and the damaged record (or, for a v1 JSON snapshot, a v1 log
// checkpoint or a v1 WAL, the schema). No refused file is changed.
func TestCheckpointCorruptionStopsDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon binary")
	}
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	walPath, ckPath := filepath.Join(dir, "relperfd.wal"), filepath.Join(dir, "relperfd.checkpoint")
	durableGeneration(t, bin, walPath, ckPath).stop(t)
	clean, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := wal.Read(bytes.NewReader(clean), 7)
	if err != nil {
		t.Fatalf("the daemon's checkpoint does not read back: %v", err)
	}
	spec, res := -1, -1
	for i, rec := range recs {
		switch {
		case rec.Type == wal.TypeSpec && spec < 0:
			spec = i
		case rec.Type == wal.TypeResult:
			res = i
		}
	}
	reframe := func(edit func(cp []wal.Record)) []byte {
		cp := append([]wal.Record(nil), recs...)
		edit(cp)
		b := wal.AppendHeader(nil, 7)
		for _, rec := range cp {
			if b, err = wal.AppendRecord(b, rec); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	flip := append([]byte(nil), clean...)
	// The data follows the fingerprint in the record's frame.
	start := int(recs[res].Offset) + bytes.Index(clean[recs[res].Offset:], []byte(recs[res].Fingerprint)) + len(recs[res].Fingerprint)
	i := start + bytes.IndexAny(flip[start:], "123456789")
	flip[i] = '0' + (flip[i]-'0'+1)%10
	named := func(i int) []string {
		return []string{fmt.Sprintf("record %d", i), recs[i].Fingerprint, fmt.Sprintf("byte offset %d", recs[i].Offset)}
	}
	// The last result with a space after its first colon and its first
	// sample time written with an exponent (x as xe0): the same result in
	// other bytes, which no CRC can tell from the canonical ones.
	data := recs[res].Data
	at := bytes.Index(data, []byte(`"seconds":[`))
	if at < 0 {
		t.Fatalf("no sample time to respell in %.80s", data)
	}
	at += len(`"seconds":[`) + bytes.IndexAny(data[at+len(`"seconds":[`):], ",]")
	respelled := bytes.Replace(fmt.Appendf(nil, "%se0%s", data[:at], data[at:]), []byte(`":`), []byte(`": `), 1)
	// A v1 log: a JSON header and JSON record envelopes, CRC-valid.
	v1 := frame(nil, []byte(`{"schema":"relperf/wal/v1","seed":7}`))
	v1 = frame(v1, fmt.Appendf(nil, `{"type":"spec","fp":%q,"data":%s}`, recs[spec].Fingerprint, recs[spec].Data))
	cases := []struct {
		name string
		data []byte
		want []string
		wal  []byte // nil: the daemon's own WAL
	}{
		{"digit-flip", flip, named(res), nil},
		{"spec-rekey", reframe(func(cp []wal.Record) { cp[spec].Fingerprint = recs[res].Fingerprint }), []string{fmt.Sprintf("record %d", spec), recs[res].Fingerprint, fmt.Sprintf("byte offset %d", recs[spec].Offset)}, nil},
		{"not-a-result", reframe(func(cp []wal.Record) { cp[res].Data = json.RawMessage(`{"not":"a result"}`) }), named(res), nil},
		{"non-canonical", reframe(func(cp []wal.Record) { cp[res].Data = respelled }), named(res), nil},
		{"truncated", clean[:len(clean)-5], named(res), nil},
		{"v1-json", []byte(`{"schema":"relperf/fleet-snapshot/v1","seed":7,"entries":[]}` + "\n"), []string{"relperf/fleet-snapshot/v1"}, nil},
		{"v1-log-checkpoint", v1, []string{"relperf/wal/v1"}, nil},
		{"v1-wal", clean, []string{"relperf/wal/v1"}, v1},
	}
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		cdir := t.TempDir()
		cw, ck := filepath.Join(cdir, "relperfd.wal"), filepath.Join(cdir, "relperfd.checkpoint")
		refused := ck
		if c.wal == nil {
			c.wal = walBytes
		} else {
			refused = cw
		}
		if err := os.WriteFile(cw, c.wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ck, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-seed", "7", "-wal", cw, "-snapshot", ck).CombinedOutput()
		cancel()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("%s: daemon exit = %v, want exit status 1\n%s", c.name, err, out)
		}
		if bytes.Contains(out, []byte("serving on")) {
			t.Fatalf("%s: daemon served before refusing its checkpoint\n%s", c.name, out)
		}
		for _, part := range append(c.want, refused) {
			if !bytes.Contains(out, []byte(part)) {
				t.Fatalf("%s: error does not name %q\n%s", c.name, part, out)
			}
		}
		for path, want := range map[string][]byte{cw: c.wal, ck: c.data} {
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
				t.Fatalf("%s: the refusing daemon changed %s", c.name, path)
			}
		}
	}
}

// frame appends a frame around payload: length, CRC32, payload.
func frame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// TestTaskJournalSurvivesCheckpointE2E: a WAL-backed coordinator's
// dispatch journal is served unchanged after a restart, although the
// shutdown checkpoint compacted every task record out of the WAL — and a
// second restart neither loses nor duplicates a record.
func TestTaskJournalSurvivesCheckpointE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon binary")
	}
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	walPath, ckPath := filepath.Join(dir, "relperfd.wal"), filepath.Join(dir, "relperfd.checkpoint")
	// No worker joins, so every study is journaled as a local fallback.
	d := durableGeneration(t, bin, walPath, ckPath, "-coordinator")
	code, want := d.get(t, "/v1/grid/tasks")
	if code != 200 || strings.Count(string(want), `"outcome"`) != 3 {
		t.Fatalf("GET /v1/grid/tasks: %d %s, want 3 records", code, want)
	}
	d.stop(t)
	for gen := 2; gen <= 3; gen++ {
		d = startDaemon(t, bin, "-seed", "7", "-workers", "2", "-wal", walPath, "-snapshot", ckPath, "-coordinator")
		if code, got := d.get(t, "/v1/grid/tasks"); code != 200 || !bytes.Equal(got, want) {
			t.Fatalf("generation %d: GET /v1/grid/tasks = %d\n%s\nwant\n%s\nlogs:\n%s", gen, code, got, want, d.logText())
		}
		d.stop(t)
	}
}
