package main

// Process-level end-to-end test of the relperfd daemon: build the real
// binary, start it in the durable configuration, submit a declarative-spec
// suite over HTTP, snapshot, kill, restart into a smaller cache that
// evicts one study, and re-GET it —
// the response must be byte-identical, recomputed from the spec the
// snapshot carried. The in-process twin (internal/fleet's e2e test) covers
// the same lifecycle under -race; this one additionally exercises the
// binary's flag wiring, signal handling and atomic snapshot writes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemonSuite mixes the two result modes: the first study summarizes a
// larger campaign into fixed-size sketches ("mode":"sketch" on the wire),
// the other two are exact. The sketch study deliberately sits first so the
// capacity-1 restart below evicts it and must recompute it from its spec.
const daemonSuite = `{"studies":[
	{"program":{"name":"d0","tasks":[
		{"name":"S1","kernel":"raw","flops":5e8,"launches":10,"host_in_bytes":1e6,"host_out_bytes":1e6,"transfers":3,"accel_eff":0.01}]},
	 "measurements":400,"reps":10,"comparator":"sketch","sketch":{"k":64}},
	{"program":{"name":"d1","tasks":[
		{"name":"L1","kernel":"raw","flops":5e8,"launches":10,"host_in_bytes":1e6,"host_out_bytes":1e6,"transfers":3,"accel_eff":0.01}]},
	 "measurements":6,"reps":10},
	{"program":{"name":"d2","tasks":[
		{"name":"G1","kernel":"gemm","size":64,"iters":8}]},
	 "platform":{"edge":{"preset":"raspberry-pi-4"},"link":{"preset":"wifi"}},
	 "measurements":6,"reps":10}
]}`

// buildDaemon compiles the relperfd binary into dir.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "relperfd-e2e")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running relperfd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	logs bytes.Buffer // guarded by mu: the scanner goroutine appends while assertions read
}

// logText snapshots the stderr captured so far.
func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// startDaemon launches the binary and waits for its "serving on" log line
// to learn the dynamically bound address.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	return startDaemonEnv(t, bin, nil, args...)
}

// startDaemonEnv is startDaemon with extra environment variables — the
// crash e2e tests use it to arm fault-injection points in the child
// process only.
func startDaemonEnv(t *testing.T, bin string, env []string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			d.mu.Unlock()
			if i := strings.Index(line, "serving on "); i >= 0 {
				rest := line[i+len("serving on "):]
				select {
				case addrCh <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	select {
	case d.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not report its address; logs:\n%s", d.logText())
	}
	return d
}

// stop sends SIGTERM and waits for a clean exit (which flushes the final
// snapshot).
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v\nlogs:\n%s", err, d.logText())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit on SIGTERM; logs:\n%s", d.logText())
	}
}

func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v\nlogs:\n%s", path, err, d.logText())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// scrapeMetrics GETs /v1/metrics, asserts the Prometheus exposition
// content type and that every sample line parses, and returns the samples
// keyed by series string (metric name plus rendered labels, exactly as on
// the wire).
func (d *daemon) scrapeMetrics(t *testing.T) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v\nlogs:\n%s", err, d.logText())
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in metrics line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func (d *daemon) health(t *testing.T) (computes uint64, storeEntries, storeSpecs int) {
	t.Helper()
	code, b := d.get(t, "/v1/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d %s", code, b)
	}
	var h struct {
		Computes uint64 `json:"computes"`
		Store    struct {
			Entries int `json:"entries"`
			Specs   int `json:"specs"`
		} `json:"store"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	return h.Computes, h.Store.Entries, h.Store.Specs
}

func TestDaemonSpecSnapshotRestartEvictRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon binary")
	}
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	snapPath := filepath.Join(dir, "snap.json")
	walPath := filepath.Join(dir, "relperfd.wal")

	// Generation 1: submit the declarative suite over HTTP, read results.
	d1 := startDaemon(t, bin, "-seed", "7", "-workers", "2", "-wal", walPath, "-snapshot", snapPath)
	resp, err := http.Post("http://"+d1.addr+"/v1/suites", "application/json", strings.NewReader(daemonSuite))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(sr.Fingerprints) != 3 {
		t.Fatalf("POST /v1/suites: %d %v", resp.StatusCode, sr)
	}
	want := map[string][]byte{}
	for _, fp := range sr.Fingerprints {
		code, body := d1.get(t, "/v1/studies/"+fp)
		if code != 200 {
			t.Fatalf("GET %s: %d %s", fp, code, body)
		}
		want[fp] = body
	}
	// Whether those first reads found their study already done is a race
	// with the compute; a re-read of a finished study is always a store
	// hit, so store_hits_total below is live whatever the timing. Re-read
	// the last study so the LRU order generation 2 relies on is unchanged.
	last := sr.Fingerprints[len(sr.Fingerprints)-1]
	if code, body := d1.get(t, "/v1/studies/"+last); code != 200 || !bytes.Equal(body, want[last]) {
		t.Fatalf("re-GET %s: %d, bytes changed=%v", last, code, !bytes.Equal(body, want[last]))
	}
	// The sketch study serves a sketch-mode result document, the exact ones
	// the pre-sketch schema with no mode marker at all.
	if b := want[sr.Fingerprints[0]]; !bytes.Contains(b, []byte(`"mode":"sketch"`)) || !bytes.Contains(b, []byte(`"error_bound"`)) {
		t.Fatalf("sketch study result lacks mode/error_bound: %s", b)
	}
	if b := want[sr.Fingerprints[1]]; bytes.Contains(b, []byte(`"mode"`)) {
		t.Fatalf("exact study result unexpectedly carries a mode field: %s", b)
	}

	// Observability surfaces, scraped through the real process: the
	// Prometheus exposition carries live engine, fleet, store and HTTP
	// series; /v1/statz mirrors it as JSON; /v1/trace shows each study's
	// full lifecycle.
	m := d1.scrapeMetrics(t)
	for series, min := range map[string]float64{
		"fleet_computes_total":                                                    3,
		`engine_stage_seconds_count{stage="measure"}`:                             3,
		`engine_stage_seconds_count{stage="cluster"}`:                             3,
		"store_merges_total":                                                      3,
		"store_hits_total":                                                        1,
		`http_request_seconds_count{route="GET /v1/studies/{fingerprint}"}`:       3,
		`http_responses_total{class="2xx",route="GET /v1/studies/{fingerprint}"}`: 3,
	} {
		if got, ok := m[series]; !ok || got < min {
			t.Fatalf("metrics series %s = %v (present=%v), want >= %v", series, got, ok, min)
		}
	}
	code, b := d1.get(t, "/v1/statz")
	var statz struct {
		Metrics []json.RawMessage `json:"metrics"`
		Tracer  struct {
			Studies int `json:"studies"`
		} `json:"tracer"`
	}
	if err := json.Unmarshal(b, &statz); err != nil || code != 200 {
		t.Fatalf("GET /v1/statz: %d %v %s", code, err, b)
	}
	if len(statz.Metrics) == 0 || statz.Tracer.Studies < 3 {
		t.Fatalf("statz: %d metrics, %d traced studies, want >0 and >=3", len(statz.Metrics), statz.Tracer.Studies)
	}
	// The trace's tail spans (stages, done) land just after the result is
	// served, so poll briefly for the complete lifecycle.
	wantSpans := []string{"queued", "computing", "stage:measure", "stage:cluster", "stage:finalize", "done"}
	traceDeadline := time.Now().Add(10 * time.Second)
	for {
		code, b = d1.get(t, "/v1/trace/"+sr.Fingerprints[0])
		if code != 200 {
			t.Fatalf("GET /v1/trace: %d %s", code, b)
		}
		var tr struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatal(err)
		}
		have := map[string]bool{}
		for _, s := range tr.Spans {
			have[s.Name] = true
		}
		missing := ""
		for _, name := range wantSpans {
			if !have[name] {
				missing = name
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(traceDeadline) {
			t.Fatalf("trace never completed: span %q missing in %s", missing, b)
		}
		time.Sleep(20 * time.Millisecond)
	}

	d1.stop(t)
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	// Generation 2: restart into a capacity-1 cache. The snapshot load
	// evicts two results but keeps all three specs, so the evicted studies
	// — the sketch one among them — must be recomputed transparently,
	// byte-identical, on their next GET.
	d2 := startDaemon(t, bin, "-seed", "7", "-workers", "2", "-wal", walPath, "-snapshot", snapPath, "-cache", "1")
	if computes, entries, specs := d2.health(t); computes != 0 || entries != 1 || specs != 3 {
		t.Fatalf("after restart: computes=%d entries=%d specs=%d, want 0/1/3", computes, entries, specs)
	}
	// The capacity-1 load kept only the snapshot's MRU entry — the study
	// fetched last in generation 1. GET it first (a pure cache hit), then
	// the evicted ones (recomputed from their snapshot specs).
	kept := sr.Fingerprints[2]
	code, body := d2.get(t, "/v1/studies/"+kept)
	if code != 200 || !bytes.Equal(body, want[kept]) {
		t.Fatalf("warm study %s differs after restart (code %d)\nlogs:\n%s", kept, code, d2.logText())
	}
	if computes, _, _ := d2.health(t); computes != 0 {
		t.Fatalf("computes = %d after a warm GET, want 0", computes)
	}
	for _, evicted := range sr.Fingerprints[:2] {
		code, body = d2.get(t, "/v1/studies/"+evicted)
		if code != 200 {
			t.Fatalf("GET evicted %s: %d %s\nlogs:\n%s", evicted, code, body, d2.logText())
		}
		if !bytes.Equal(body, want[evicted]) {
			t.Fatalf("study %s served different bytes after restart+eviction", evicted)
		}
	}
	if computes, _, _ := d2.health(t); computes != 2 {
		t.Fatalf("computes = %d after recomputing two evicted studies, want exactly 2", computes)
	}
	d2.stop(t)
}
