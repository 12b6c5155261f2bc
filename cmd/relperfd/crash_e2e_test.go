package main

// Crash-recovery and failover end-to-end tests of the real binary: a
// daemon self-SIGKILLed mid-suite by an armed faultpoint (clean kill and
// torn-write variants) must, after restart, serve byte-identical results
// for everything it acknowledged; a standby fed by -standby snapshot
// pushes must serve the primary's exact bytes with zero recomputation
// after the primary is SIGKILLed.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"relperf/internal/faultpoint"
	"relperf/internal/wal"
)

// postSuite posts the daemonSuite and returns its fingerprints. A
// transport error (the daemon died before answering) is returned; any
// answer other than 202 with three fingerprints fails the test.
func postSuite(t *testing.T, d *daemon) ([]string, error) {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+"/v1/suites", "application/json", strings.NewReader(daemonSuite))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sr struct {
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || len(sr.Fingerprints) != 3 {
		t.Fatalf("POST /v1/suites: %d %v", resp.StatusCode, sr)
	}
	return sr.Fingerprints, nil
}

// submitSuite posts the daemonSuite and returns its fingerprints.
func submitSuite(t *testing.T, d *daemon) []string {
	t.Helper()
	fps, err := postSuite(t, d)
	if err != nil {
		t.Fatalf("POST /v1/suites: %v\nlogs:\n%s", err, d.logText())
	}
	return fps
}

// goldenRun computes the suite on a pristine daemon and returns the
// fingerprints with the canonical bytes every later generation must match.
func goldenRun(t *testing.T, bin string) ([]string, map[string][]byte) {
	t.Helper()
	d := startDaemon(t, bin, "-seed", "7", "-workers", "2")
	fps := submitSuite(t, d)
	want := map[string][]byte{}
	for _, fp := range fps {
		code, body := d.get(t, "/v1/studies/"+fp)
		if code != 200 {
			t.Fatalf("golden GET %s: %d %s", fp, code, body)
		}
		want[fp] = body
	}
	d.stop(t)
	return fps, want
}

// waitSIGKILL waits for the daemon process to die and asserts it died by
// SIGKILL — the faultpoint's self-kill, not a clean exit path.
func waitSIGKILL(t *testing.T, d *daemon) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("crashed daemon exit = %v, want an exit error\nlogs:\n%s", err, d.logText())
		}
		if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("crashed daemon status = %v, want death by SIGKILL", ee)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("armed daemon never crashed; logs:\n%s", d.logText())
	}
}

// journaledTypes returns the record types a crashed daemon's log
// recovers to, oldest first. It reads a copy, so the restart still finds
// (and loudly truncates) any torn tail itself.
func journaledTypes(t *testing.T, walPath string) []string {
	t.Helper()
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "copy.wal")
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := wal.Open(cp, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	types := make([]string, len(recs))
	for i, rec := range recs {
		types[i] = rec.Type
	}
	return types
}

// crashAndRestart runs one crash generation. A durable daemon armed with
// fault, which fires on the 4th WAL append, is sent the suite and must
// SIGKILL itself; restarted on the same files, it must hold all three
// specs and serve every golden fingerprint byte-identically. SubmitSpecs
// journals every spec (appends 1–3) before it starts any study, so append
// 4 is the first result by construction — but that result can still race
// the POST's 202 out of the process. A generation whose POST went
// unanswered is checked the same way and then run again on fresh files,
// so the daemon returned always recovered a suite the client saw
// acknowledged with the golden fingerprints.
func crashAndRestart(t *testing.T, bin, fault string, fps []string, want map[string][]byte) *daemon {
	t.Helper()
	const attempts = 3
	for attempt := 1; ; attempt++ {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "relperfd.wal")
		args := []string{"-seed", "7", "-workers", "2",
			"-wal", walPath,
			"-snapshot", filepath.Join(dir, "relperfd.snapshot.json")}
		d1 := startDaemonEnv(t, bin, []string{faultpoint.EnvVar + "=" + fault}, args...)
		crashFps, postErr := postSuite(t, d1)
		for i, fp := range crashFps {
			if fp != fps[i] {
				t.Fatalf("crash-run fingerprint %d = %s, golden %s (suite identity drifted)", i, fp, fps[i])
			}
		}
		waitSIGKILL(t, d1)
		// Answered or not, the log must open with the three specs and
		// continue, if at all, with a result: a result journaled ahead of
		// a spec is the ordering race SubmitSpecs rules out.
		if types := journaledTypes(t, walPath); len(types) < 3 || types[0] != wal.TypeSpec || types[1] != wal.TypeSpec || types[2] != wal.TypeSpec || (len(types) > 3 && types[3] != wal.TypeResult) {
			t.Fatalf("%s: crashed log holds records %v, want three specs before any result", fault, types)
		}

		// Restart without the faultpoint: recovery replays the journaled
		// specs (and whichever results the crash let through), then every
		// GET must reproduce the golden bytes exactly.
		d2 := startDaemon(t, bin, args...)
		if _, _, specs := d2.health(t); specs != 3 {
			t.Fatalf("%s: restart recovered %d specs, want 3 (all were journaled before the crash)\nlogs:\n%s", fault, specs, d2.logText())
		}
		for _, fp := range fps {
			code, body := d2.get(t, "/v1/studies/"+fp)
			if code != 200 {
				t.Fatalf("%s: post-crash GET %s: %d %s\nlogs:\n%s", fault, fp, code, body, d2.logText())
			}
			if !bytes.Equal(body, want[fp]) {
				t.Fatalf("%s: study %s served different bytes after crash recovery", fault, fp)
			}
		}
		if postErr == nil {
			return d2
		}
		if attempt == attempts {
			t.Fatalf("%s: in %d attempts the fault always fired before the suite was acknowledged: %v", fault, attempts, postErr)
		}
		t.Logf("%s: attempt %d: the fault fired before the POST was answered (%v); running again", fault, attempt, postErr)
		d2.stop(t)
	}
}

// TestCrashRecoveryE2E: a daemon with a WAL is killed -9 (by its own
// armed faultpoint) while the suite is mid-flight — after the specs were
// journaled, before the results all landed. The restarted daemon must
// serve every fingerprint byte-identically to an uncrashed run, replaying
// what the WAL held and recomputing the rest from journaled specs.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon binary")
	}
	bin := buildDaemon(t, t.TempDir())
	fps, want := goldenRun(t, bin)

	// wal.append.sync fires on the first result append: the suite is
	// acknowledged, the results are mid-flight.
	d2 := crashAndRestart(t, bin, "wal.append.sync=crash:4", fps, want)
	// The restarted daemon's exposition reports the replay: at least the
	// three journaled spec records came back off the WAL.
	if m := d2.scrapeMetrics(t); m["wal_replayed_records_total"] < 3 {
		t.Fatalf("wal_replayed_records_total = %v after recovery, want >= 3", m["wal_replayed_records_total"])
	}
	d2.stop(t)
}

// TestCrashRecoveryTornWriteE2E: the kill lands mid-append — half a frame
// reaches the disk. Recovery must truncate the torn tail loudly and still
// serve everything acknowledged before it, byte-identically.
func TestCrashRecoveryTornWriteE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon binary")
	}
	bin := buildDaemon(t, t.TempDir())
	fps, want := goldenRun(t, bin)

	// wal.append.write fires on the first result append and tears it —
	// half its frame on disk, then SIGKILL; the three specs landed whole.
	d2 := crashAndRestart(t, bin, "wal.append.write=tear:4", fps, want)
	// The truncation must have been loud — silent data dropping is the one
	// unforgivable recovery behavior — and counted in the exposition.
	if !strings.Contains(d2.logText(), "RECOVERY") {
		t.Fatalf("torn tail was truncated silently; logs:\n%s", d2.logText())
	}
	if m := d2.scrapeMetrics(t); m["wal_truncations_total"] < 1 {
		t.Fatalf("wal_truncations_total = %v after a torn-tail recovery, want >= 1", m["wal_truncations_total"])
	}
	d2.stop(t)
}

// TestStandbyFailoverE2E: a primary pushing compacted snapshots to a
// standby is SIGKILLed; the standby then serves the primary's exact
// result bytes having computed nothing itself.
func TestStandbyFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon binary")
	}
	dir := t.TempDir()
	bin := buildDaemon(t, dir)

	standby := startDaemon(t, bin, "-seed", "7", "-workers", "2")
	primaryDir := t.TempDir()
	primary := startDaemon(t, bin,
		"-seed", "7", "-workers", "2",
		"-wal", filepath.Join(primaryDir, "relperfd.wal"),
		"-snapshot", filepath.Join(primaryDir, "relperfd.snapshot.json"),
		"-snapshot-interval", "150ms",
		"-standby", "http://"+standby.addr)

	fps := submitSuite(t, primary)
	want := map[string][]byte{}
	for _, fp := range fps {
		code, body := primary.get(t, "/v1/studies/"+fp)
		if code != 200 {
			t.Fatalf("primary GET %s: %d %s", fp, code, body)
		}
		want[fp] = body
	}

	// Wait for a compaction cycle to replicate all three results and specs
	// to the standby — without the standby computing a thing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		computes, entries, specs := standby.health(t)
		if computes != 0 {
			t.Fatalf("standby computed %d studies; replication must not recompute", computes)
		}
		if entries == 3 && specs == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up (entries=%d specs=%d)\nprimary logs:\n%s\nstandby logs:\n%s",
				entries, specs, primary.logText(), standby.logText())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Hard failover: the primary dies without ceremony.
	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = primary.cmd.Wait()

	for _, fp := range fps {
		code, body := standby.get(t, "/v1/studies/"+fp)
		if code != 200 {
			t.Fatalf("standby GET %s: %d %s\nlogs:\n%s", fp, code, body, standby.logText())
		}
		if !bytes.Equal(body, want[fp]) {
			t.Fatalf("standby serves different bytes for %s after failover", fp)
		}
	}
	if computes, _, _ := standby.health(t); computes != 0 {
		t.Fatalf("standby computes = %d after serving the failed-over suite, want 0", computes)
	}
	standby.stop(t)
}
