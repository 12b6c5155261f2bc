// Command perfbench is relperf's end-to-end benchmark. One invocation runs
// one workload against a real relperfd binary on a fresh copy of a seeded
// data directory and prints its metrics; the last line of standard output
// is a JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -relperfd bin/relperfd -workdir .bench_build/work \
//	    --workload cold-compute --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same load
// phase with client spans on, then replays a seeded sample of the
// workload's ops in-process through each layer's public calls and reports
// the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The shape of every run: the studies in the shared data directory and the
// daemon starts setup_s is the median of. Runs use one closed-loop client
// per CPU, so the generator never has more goroutines driving load than
// the box has cores.
const (
	fixtureStudies = 10000
	setups         = 5
)

type options struct {
	workload       string
	seed           uint64
	seconds        int
	trace          int
	relperfd       string
	workdir        string
	fixtureStudies int
	setups         int
	clients        int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; also the daemon's suite seed")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.relperfd, "relperfd", "", "path to the relperfd binary under test")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory; emptied at start, removed at exit")
	flag.Parse()
	o.fixtureStudies, o.setups, o.clients = fixtureStudies, setups, runtime.NumCPU()
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	// Every run must end within three minutes, daemons reaped.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	rep, err := run(ctx, o)
	stop()
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func (o *options) validate() error {
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return fmt.Errorf("--workload %q: want one of %s", o.workload, strings.Join(workloadNames, ", "))
	case o.seconds < 1:
		return errors.New("--seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return errors.New("--trace must be 0 or 1")
	case o.relperfd == "" || o.workdir == "":
		return errors.New("-relperfd and -workdir are required (run through perfbench/run.sh)")
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// logf prints one human-readable line ahead of the result line.
func logf(format string, args ...any) {
	fmt.Printf("perfbench: "+format+"\n", args...)
}

// opsPerSecondCap sizes each workload's pre-generated op pool several
// times above the rate a 2-core box reaches, so a much faster daemon still
// finds fresh studies; warm-read wraps around instead.
var opsPerSecondCap = map[string]int{wlCold: 300, wlIngest: 600, wlWarm: 8000}

func run(ctx context.Context, o options) (*report, error) {
	if err := os.RemoveAll(o.workdir); err != nil {
		return nil, err
	}
	work := filepath.Join(o.workdir, fmt.Sprintf("%s-%d", o.workload, o.seed))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.workdir)

	fx, err := buildFixture(filepath.Join(work, "fixture"), o.seed, o.fixtureStudies)
	if err != nil {
		return nil, err
	}
	logf("fixture: %d studies, snapshot %d B, wal %d B, built in %.2fs (untimed)",
		len(fx.studies), fx.snapshotBytes, fx.walBytes, fx.buildSeconds)
	lp, err := generate(o, fx)
	if err != nil {
		return nil, err
	}

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	d, setups, err := startServing(ctx, o, fx, work, hc)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	if err := logEnv(o, fx, d, hc); err != nil {
		return nil, err
	}

	lp.base = d.base
	before, err := scrape(hc, d.base)
	if err != nil {
		return nil, err
	}
	procBefore, err := readProc(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var poll *checkpointPoller
	if lp.trace {
		poll = startCheckpointPoller(filepath.Join(d.dir, snapshotFile))
	}
	lp.run(ctx, time.Duration(o.seconds)*time.Second)
	checkpoints := 0
	if poll != nil {
		checkpoints = poll.stop()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	procAfter, err := readProc(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	after, err := scrape(hc, d.base)
	if err != nil {
		return nil, err
	}
	snapBytes, err := fileSize(filepath.Join(d.dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	hc.CloseIdleConnections()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	diff := delta(before, after)

	results, reqs := lp.results()
	sort.Slice(results, func(i, j int) bool { return results[i].op < results[j].op })
	correct, err := check(o, fx, lp, results, reqs, diff)
	if err != nil {
		return nil, err
	}
	var lat []float64
	okOps, failedOps := 0, 0
	for _, r := range results {
		lat = append(lat, ms(r.lat))
		if r.ok {
			okOps++
			continue
		}
		if failedOps < 5 {
			logf("failed op %d: %s", r.op, r.err)
		}
		failedOps++
	}
	if len(lat) == 0 {
		return nil, errors.New("no op completed")
	}
	sort.Float64s(lat)
	// throughput_rps is the median window's rate, so a stall of a few
	// seconds, the daemon's or the machine's, moves it little.
	rates := windowRates(results, snapshotInterval, time.Duration(o.seconds)*time.Second)
	logf("ops attempted=%d succeeded=%d failed=%d elapsed=%.3fs", len(results), okOps, failedOps, lp.elapsed.Seconds())
	logf("ops succeeded per second in each %v window: %.2f", snapshotInterval, rates)
	if beyond := len(lat) - int(math.Ceil(0.99*float64(len(lat)))); beyond < 10 {
		logf("WARNING: only %d samples lie beyond p99; lengthen --seconds", beyond)
	}

	rep := &report{Correct: correct && failedOps == 0, Attempted: len(results), Failed: failedOps, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64, samples int) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		logf("metric %s = %.6g %s (samples=%d)", name, v, unit, samples)
	}
	throughput := median(rates)
	if o.trace == 0 {
		put("throughput_rps", "1/s", throughput, okOps)
		put("latency_p50_ms", "ms", quantile(lat, 0.5), len(lat))
		put("latency_p99_ms", "ms", quantile(lat, 0.99), len(lat))
		put("setup_s", "s", median(setups), len(setups))
		return rep, nil
	}

	layers, replayTracer, err := measureLayers(ctx, layerInputs{
		fx: fx, seed: o.seed, workload: o.workload, ops: lp.ops, results: results,
		diff: diff, after: after, procBefore: procBefore, procAfter: procAfter,
		okOps: okOps, snapshotBytes: snapBytes, checkpoints: checkpoints,
		dataDir: d.dir, scratch: filepath.Join(work, "replay"),
	})
	if err != nil {
		return nil, err
	}
	for _, m := range layers {
		put(m.name, m.unit, m.value, m.samples)
	}
	put("trace.throughput_rps", "1/s", throughput, okOps)
	tracers := []*tracer{replayTracer}
	for _, w := range lp.workers {
		tracers = append(tracers, &w.tr)
	}
	tracePath := filepath.Join(filepath.Dir(o.workdir), "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(tracePath, tracers); err != nil {
		return nil, err
	}
	logf("spans written to %s", tracePath)
	return rep, nil
}

// generate builds the workload's op sequence and, for warm-read, the exact
// responses it expects, all before timing.
func generate(o options, fx *fixture) (*loadPhase, error) {
	start := time.Now()
	lp := &loadPhase{clients: o.clients, trace: o.trace == 1}
	seen := make(map[string]bool, len(fx.studies))
	for _, st := range fx.studies {
		seen[st.FP] = true
	}
	pool := o.seconds * opsPerSecondCap[o.workload]
	var err error
	switch o.workload {
	case wlCold:
		lp.ops, err = genCold(o.seed, pool, seen)
	case wlIngest:
		lp.ops, err = genIngest(o.seed, pool, seen)
	case wlWarm:
		lp.ops, lp.wrap = genWarm(o.seed, pool, len(fx.studies)), true
		lp.warm, err = buildWarmExpect(fx, lp.ops, o.seed)
	}
	if err != nil {
		return nil, err
	}
	logf("generated %d ops in %.2fs (untimed)", len(lp.ops), time.Since(start).Seconds())
	return lp, nil
}

// startServing starts the daemon o.setups times, each on a fresh copy of
// the data directory, and returns the last one with every set-up time.
func startServing(ctx context.Context, o options, fx *fixture, work string, hc *http.Client) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		dir := filepath.Join(work, fmt.Sprintf("data%d", i))
		if err := fx.copyTo(dir); err != nil {
			return nil, nil, err
		}
		d, err := startDaemon(ctx, o.relperfd, dir, o.seed, hc)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs(d.setup))
		hc.CloseIdleConnections()
		if i == o.setups-1 {
			logf("set-up times (s): %.4f", setups)
			return d, setups, nil
		}
		d.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// logEnv records what a machine change would otherwise pass off as a code
// change, and checks the daemon recovered the whole fixture.
func logEnv(o options, fx *fixture, d *daemon, hc *http.Client) error {
	h, err := d.health(hc)
	if err != nil {
		return err
	}
	daemonProcs := os.Getenv("GOMAXPROCS")
	if daemonProcs == "" {
		daemonProcs = fmt.Sprintf("unset (runtime default %d)", runtime.NumCPU())
	}
	commit := h.Build.VCSRevision
	if commit == "" {
		commit = "unknown (not built from a git checkout)"
	}
	env, err := json.Marshal(map[string]any{
		"nproc":                  runtime.NumCPU(),
		"generator_gomaxprocs":   runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":      daemonProcs,
		"daemon_workers":         h.Workers,
		"daemon_flags":           strings.Join(daemonArgs("<data>", o.seed), " "),
		"go_version":             runtime.Version(),
		"daemon_go_version":      h.Build.GoVersion,
		"commit":                 commit,
		"commit_modified":        h.Build.VCSModified,
		"fixture_studies":        len(fx.studies),
		"fixture_snapshot_bytes": fx.snapshotBytes,
		"fixture_wal_bytes":      fx.walBytes,
		"recovered_entries":      h.Store.Entries,
		"recovered_specs":        h.Store.Specs,
		"clients":                o.clients,
		"seconds":                o.seconds,
	})
	if err != nil {
		return err
	}
	logf("env %s", env)
	if h.Store.Entries != len(fx.studies) {
		return fmt.Errorf("daemon recovered %d entries, fixture holds %d", h.Store.Entries, len(fx.studies))
	}
	return nil
}

// check runs every post-phase correctness check and reports whether all
// passed; a byte mismatch also fails its op.
func check(o options, fx *fixture, lp *loadPhase, results []opResult, reqs []reqSample, diff series) (bool, error) {
	correct := true
	fail := func(format string, args ...any) {
		correct = false
		logf("CHECK FAILED: "+format, args...)
	}
	if lp.exhausted.Load() {
		fail("the %d pre-generated ops ran out before the timed phase ended", len(lp.ops))
	}
	if o.workload == wlWarm {
		served := map[int]bool{}
		for _, r := range results {
			served[lp.ops[r.op].fx] = true
		}
		for i := range served {
			if err := roundTrip(fx.studies[i].Result); err != nil {
				fail("fixture study %s: %v", fx.studies[i].FP, err)
			}
		}
		if c := diff["fleet_computes_total"]; c != 0 {
			fail("warm-read computed %v studies; the engine must stay idle", c)
		}
	} else {
		checkBlobs(results, lp.ops)
		n, err := recomputeSample(results, lp.ops, o.seed, 16)
		if err != nil {
			return false, err
		}
		logf("recomputed %d served studies in-process: bytes compared", n)
	}
	server, client := classCounts(reqs, diff)
	logf("http_responses_total by class (daemon) %v; client statuses %v", server, client)
	for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		if server[class] != client[class] {
			fail("daemon counted %v %s responses, clients received %v", server[class], class, client[class])
		}
	}
	for _, c := range checkRoutes(reqs, diff) {
		logf("route %q: %d requests; client p50 %.3fms p99 %.3fms; server p50 %.3fms [bucket from %.3fms] p99 %.3fms [bucket from %.3fms]",
			c.route, c.requests, c.clientP50, c.clientP99, c.serverP50, c.serverP50Low, c.serverP99, c.serverP99Low)
		if c.problem != "" {
			fail("route %q: client and daemon disagree: %s", c.route, c.problem)
		}
	}
	return correct, nil
}
