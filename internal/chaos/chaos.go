// Package chaos is the self-healing soak harness: it stands up a real
// relperfd grid — one coordinator plus supervised workers, each a separate
// process kept alive by internal/supervise — and then spends a seeded
// schedule of rounds hurting it while clients keep submitting and reading
// suites. Each round injects one fault into one worker:
//
//	kill        SIGKILL mid-suite; the supervisor restarts the worker and
//	            its fresh epoch requalifies it with the coordinator
//	pause       SIGSTOP; dispatches to it time out, the health machine
//	            quarantines it, SIGCONT brings it back via probation
//	slow-start  SIGKILL plus a one-shot RELPERF_FAULTPOINT=daemon.start
//	            arming of the next start, so the first restart dies at
//	            startup and the supervisor has to back off and try again
//
// The harness then asserts the whole robustness contract at once: every
// client request of every round succeeds (HTTP 200, no errors), every
// result is byte-identical to a single-node golden computed up front, and
// every killed worker is back in the registry, healthy, within the
// configured rejoin bound. Any violation reports the seed, so a failing
// schedule replays exactly.
//
// The observability surface is soaked alongside the data plane: every
// round runs one federated /v1/grid/metrics scrape while the fault is
// live — it must answer within a bounded window with the coordinator's
// own series (a dead worker degrades its own rows, never the scrape),
// and a paused worker must surface as stale (grid_scrape_ok 0), not
// missing. Every study's fanned-in /v1/trace timeline must answer, a
// lost remote half must be loud (fetch-failed), and at least one study
// per soak must produce a fully merged coordinator+worker trace.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"relperf/internal/fleet"
	"relperf/internal/grid"
	"relperf/internal/obs"
	"relperf/internal/supervise"
	"relperf/internal/xrand"
)

// Action is one fault the soak can inject into a worker.
type Action string

const (
	ActionKill      Action = "kill"
	ActionPause     Action = "pause"
	ActionSlowStart Action = "slow-start"
)

// actions is the schedule alphabet, indexed by the seeded draw.
var actions = [...]Action{ActionKill, ActionPause, ActionSlowStart}

// Config configures a soak run.
type Config struct {
	// Binary is the relperfd binary to run (built by the caller).
	Binary string
	// Seed drives the fault schedule — which worker, which action, per
	// round. Equal seeds replay identical schedules.
	Seed uint64
	// SuiteSeed is the study seed every node runs with (default 1); the
	// golden is computed at the same seed.
	SuiteSeed uint64
	// Rounds is how many fault rounds to run (default 5).
	Rounds int
	// Workers is the grid size (default 2).
	Workers int
	// RejoinBound is how long a killed worker may take to be back and
	// healthy in the coordinator's registry: supervisor backoff plus
	// readiness plus one heartbeat, with margin (default 15s).
	RejoinBound time.Duration
	// Settle is how long a submitted suite runs before the fault lands
	// (default 100ms) — long enough to be mid-suite, short enough that the
	// suite is still in flight.
	Settle time.Duration
	// Logf receives harness progress; nil discards it.
	Logf func(format string, args ...any)
	// ChildOutput receives every daemon's stderr; nil discards it.
	ChildOutput io.Writer
	// Obs, when set, receives the supervisors' restart/state metrics.
	Obs *obs.Obs
}

// RoundReport records one fault round.
type RoundReport struct {
	Round       int           `json:"round"`
	Target      string        `json:"target"`
	Action      Action        `json:"action"`
	Studies     int           `json:"studies"`
	RejoinAfter time.Duration `json:"rejoin_after_ns"`
}

// Report is the outcome of a soak run. A run that returns a nil error
// always has Failed == 0 and Divergent == 0.
type Report struct {
	Seed      uint64        `json:"seed"`
	Workers   int           `json:"workers"`
	Rounds    []RoundReport `json:"rounds"`
	Requests  int           `json:"requests"`
	Failed    int           `json:"failed"`
	Divergent int           `json:"divergent"`
	Restarts  uint64        `json:"restarts"`
	// FederatedScrapes counts the mid-fault /v1/grid/metrics scrapes that
	// completed; a passing run has one per round.
	FederatedScrapes int `json:"federated_scrapes"`
	// MergedTraces counts studies whose fanned-in timeline carried both
	// coordinator and worker spans; a passing run has at least one.
	MergedTraces int `json:"merged_traces"`
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf("chaos: "+format, args...)
	}
}

// roundSuite is round r's workload: two cheap tableI studies (plain and
// matrix) whose measurement count varies per round, so every round has
// fresh fingerprints and the grid genuinely computes under fire.
func roundSuite(r int) []fleet.StudySpec {
	return []fleet.StudySpec{
		{Workload: "tableI", LoopN: 2, Measurements: 4 + r, Reps: 8},
		{Workload: "tableI", LoopN: 2, Measurements: 4 + r, Reps: 8, Matrix: true},
	}
}

// reservePorts grabs n distinct loopback ports. The listeners close before
// the daemons start, so the addresses stay stable across worker restarts —
// a restarted worker must come back on the URL it advertised.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// Run executes the soak and returns its report. The error is non-nil when
// any invariant broke — failed requests, byte divergence, a worker that
// never rejoined, a supervisor that gave up — and always names the seed.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Binary == "" {
		return nil, errors.New("chaos: Config.Binary is required")
	}
	if cfg.SuiteSeed == 0 {
		cfg.SuiteSeed = 1
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 5
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RejoinBound <= 0 {
		cfg.RejoinBound = 15 * time.Second
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 100 * time.Millisecond
	}
	rep := &Report{Seed: cfg.Seed, Workers: cfg.Workers}

	// Phase 1: the single-node golden. The library scheduler computes every
	// round's studies in-process at the suite seed; the grid must later
	// serve these exact bytes whatever faults land.
	golden := map[string][]byte{}
	fpsByRound := make([][]string, cfg.Rounds)
	{
		sched := fleet.New(fleet.Options{Workers: 1, Seed: cfg.SuiteSeed})
		for r := 0; r < cfg.Rounds; r++ {
			fps, err := sched.SubmitSpecs(roundSuite(r))
			if err != nil {
				sched.Close()
				return nil, fmt.Errorf("chaos: golden round %d: %w", r, err)
			}
			fpsByRound[r] = fps
			for _, fp := range fps {
				blob, err := sched.Result(ctx, fp)
				if err != nil {
					sched.Close()
					return nil, fmt.Errorf("chaos: golden round %d: %w", r, err)
				}
				golden[fp] = append(append([]byte(nil), blob...), '\n')
			}
		}
		sched.Close()
	}
	cfg.logf("golden computed: %d studies over %d rounds", len(golden), cfg.Rounds)

	// Phase 2: the grid. Fixed loopback ports so worker URLs survive
	// restarts; a tight TTL and dispatch timeout so paused workers fail
	// over in round time, not in production time.
	addrs, err := reservePorts(cfg.Workers + 1)
	if err != nil {
		return nil, fmt.Errorf("chaos: reserving ports: %w", err)
	}
	coordAddr, workerAddrs := addrs[0], addrs[1:]
	coordURL := "http://" + coordAddr

	coord := exec.Command(cfg.Binary,
		"-addr", coordAddr,
		"-seed", fmt.Sprint(cfg.SuiteSeed),
		"-coordinator",
		"-grid-ttl", "2s",
		"-grid-request-timeout", "2s",
		"-grid-scrape-timeout", "1s",
	)
	coord.Stdout = cfg.ChildOutput
	coord.Stderr = cfg.ChildOutput
	coord.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := coord.Start(); err != nil {
		return nil, fmt.Errorf("chaos: starting coordinator: %w", err)
	}
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.Wait() }()
	defer func() {
		_ = syscall.Kill(-coord.Process.Pid, syscall.SIGKILL)
		<-coordDone
	}()

	client := &http.Client{Timeout: time.Minute}
	if err := waitHTTP(ctx, client, coordURL+"/v1/healthz", 10*time.Second); err != nil {
		return nil, fmt.Errorf("chaos: coordinator never became healthy: %w", err)
	}

	// Workers run under real supervisors. doom[i] arms the *next* start of
	// worker i with a one-shot daemon.start fault — the slow-start action:
	// the first restart dies at startup and the supervisor must back off
	// and start it again.
	supCtx, stopSups := context.WithCancel(ctx)
	defer stopSups()
	sups := make([]*supervise.Supervisor, cfg.Workers)
	doom := make([]atomic.Bool, cfg.Workers)
	var wg sync.WaitGroup
	supErrs := make([]error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		i := i
		name := fmt.Sprintf("worker-%d", i)
		workerURL := "http://" + workerAddrs[i]
		sup, err := supervise.New(supervise.Config{
			Name: name,
			Command: []string{cfg.Binary,
				"-addr", workerAddrs[i],
				"-seed", fmt.Sprint(cfg.SuiteSeed),
				"-join", coordURL,
				"-advertise", workerURL,
				"-grid-heartbeat-timeout", "1s",
			},
			StartEnv: func() []string {
				if doom[i].CompareAndSwap(true, false) {
					return []string{"RELPERF_FAULTPOINT=daemon.start=error:1"}
				}
				return nil
			},
			Stdout:        cfg.ChildOutput,
			Stderr:        cfg.ChildOutput,
			BackoffBase:   50 * time.Millisecond,
			BackoffMax:    time.Second,
			RestartBudget: 10 * cfg.Rounds, // the soak restarts workers on purpose; only a true loop should trip
			RestartWindow: time.Minute,
			ReadyURL:      workerURL + "/v1/healthz",
			ReadyTimeout:  10 * time.Second,
			ShutdownGrace: 2 * time.Second,
			JitterKey:     xrand.Mix(cfg.Seed, uint64(i)+1),
			Logf:          cfg.Logf,
			Obs:           cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		sups[i] = sup
		wg.Add(1)
		go func() {
			defer wg.Done()
			supErrs[i] = sup.Run(supCtx)
		}()
	}
	defer wg.Wait()
	defer stopSups()

	workerID := func(i int) string { return "http://" + workerAddrs[i] }
	if err := waitWorkers(ctx, client, coordURL, cfg.Workers, func(ws []grid.WorkerStatus) bool {
		healthy := 0
		for _, w := range ws {
			if w.State == grid.StateHealthy {
				healthy++
			}
		}
		return healthy == cfg.Workers
	}, cfg.RejoinBound); err != nil {
		return nil, fmt.Errorf("chaos: grid never fully registered: %w", err)
	}
	cfg.logf("grid up: coordinator %s, %d workers", coordURL, cfg.Workers)

	// Phase 3: the rounds. Submit, let the suite get airborne, hurt one
	// worker, then read every result back and compare against the golden.
	for r := 0; r < cfg.Rounds; r++ {
		if ctx.Err() != nil {
			return rep, fmt.Errorf("chaos: cancelled at round %d (seed %d)", r, cfg.Seed)
		}
		target := int(xrand.Mix(cfg.Seed, uint64(r)+1) % uint64(cfg.Workers))
		action := actions[xrand.Mix(cfg.Seed+1, uint64(r)+1)%uint64(len(actions))]
		sup := sups[target]
		round := RoundReport{Round: r, Target: workerID(target), Action: action, Studies: len(fpsByRound[r])}

		fps, err := postSuite(client, coordURL, roundSuite(r))
		if err != nil {
			rep.Failed++
			return rep, fmt.Errorf("chaos: round %d submit failed (seed %d): %w", r, cfg.Seed, err)
		}
		rep.Requests++
		if strings.Join(fps, ",") != strings.Join(fpsByRound[r], ",") {
			return rep, fmt.Errorf("chaos: round %d fingerprints diverge from golden (seed %d)", r, cfg.Seed)
		}
		time.Sleep(cfg.Settle)

		cfg.logf("round %d: %s on %s", r, action, round.Target)
		// The target's current epoch anchors the rejoin assertion below: a
		// killed worker is only "back" once the listing shows a different
		// epoch — the restarted process, not the old lease coasting on its
		// TTL.
		oldEpoch := workerEpoch(client, coordURL, workerID(target))
		paused := false
		switch action {
		case ActionKill:
			_ = sup.Signal(syscall.SIGKILL)
		case ActionPause:
			_ = sup.Signal(syscall.SIGSTOP)
			paused = true
			waitStopped(sup.Pid(), cfg.RejoinBound)
		case ActionSlowStart:
			doom[target].Store(true)
			_ = sup.Signal(syscall.SIGKILL)
		}

		// Observability under fire: one federated scrape with the fault
		// live. It must come back whole — coordinator series present —
		// within a bounded window (the scrapes run concurrently, so a
		// wedged worker costs one scrape timeout, not one per worker). A
		// paused worker is still registered at this point (its lease
		// outlives the freeze), so it must appear as stale, not vanish.
		scrapeStart := time.Now()
		fed, err := httpGetBody(client, coordURL+"/v1/grid/metrics")
		rep.Requests++
		if err != nil {
			rep.Failed++
			if paused {
				_ = sup.Signal(syscall.SIGCONT)
			}
			return rep, fmt.Errorf("chaos: round %d federated scrape failed mid-%s (seed %d): %w", r, action, cfg.Seed, err)
		}
		if elapsed := time.Since(scrapeStart); elapsed > 5*time.Second {
			if paused {
				_ = sup.Signal(syscall.SIGCONT)
			}
			return rep, fmt.Errorf("chaos: round %d federated scrape took %s mid-%s, want ~one scrape timeout (seed %d)", r, elapsed, action, cfg.Seed)
		}
		if !strings.Contains(fed, "grid_workers_live") {
			return rep, fmt.Errorf("chaos: round %d federated scrape lost the coordinator's own series (seed %d)", r, cfg.Seed)
		}
		if action == ActionPause && !strings.Contains(fed, fmt.Sprintf("grid_scrape_ok{worker=%q} 0", workerID(target))) {
			_ = sup.Signal(syscall.SIGCONT)
			return rep, fmt.Errorf("chaos: round %d: paused worker %s is missing from the federated scrape instead of stale (seed %d)", r, workerID(target), cfg.Seed)
		}
		rep.FederatedScrapes++

		for _, fp := range fps {
			body, err := getStudy(client, coordURL, fp)
			rep.Requests++
			if err != nil {
				rep.Failed++
				if paused {
					_ = sup.Signal(syscall.SIGCONT)
				}
				return rep, fmt.Errorf("chaos: round %d GET %s failed (seed %d): %w", r, fp, cfg.Seed, err)
			}
			if !bytes.Equal(body, golden[fp]) {
				rep.Divergent++
				if paused {
					_ = sup.Signal(syscall.SIGCONT)
				}
				return rep, fmt.Errorf("chaos: round %d study %s: grid bytes diverge from single-node golden (seed %d)", r, fp, cfg.Seed)
			}
		}
		if paused {
			_ = sup.Signal(syscall.SIGCONT)
		}

		// Trace fan-in under fire: every completed study's merged timeline
		// must answer, and a study that demonstrably ran remotely (its
		// coordinator half records a successful dispatch-attempt) must
		// either carry its worker half or degrade loudly with fetch-failed
		// — a silently coordinator-only trace is a fan-in bug, not an
		// outage.
		for _, fp := range fps {
			tr, err := getTrace(client, coordURL, fp)
			rep.Requests++
			if err != nil {
				rep.Failed++
				return rep, fmt.Errorf("chaos: round %d trace %s failed (seed %d): %w", r, fp, cfg.Seed, err)
			}
			var remoteDispatch, workerSpan, fetchFailed bool
			for _, s := range tr.Spans {
				switch {
				case s.Node == "coordinator" && s.Name == "dispatch-attempt" && s.Error == "" && s.Worker != "":
					remoteDispatch = true
				case s.Name == "fetch-failed":
					fetchFailed = true
				case s.Node != "" && s.Node != "coordinator":
					workerSpan = true
				}
			}
			if remoteDispatch && !workerSpan && !fetchFailed {
				return rep, fmt.Errorf("chaos: round %d trace %s ran remotely but has neither worker spans nor a fetch-failed marker (seed %d)", r, fp, cfg.Seed)
			}
			if remoteDispatch && workerSpan {
				rep.MergedTraces++
			}
		}

		// Self-healing assertion. A killed worker restarts with a new epoch
		// and must be listed healthy under it — the same ID still coasting
		// on its pre-kill lease does not count, only the re-registered
		// incarnation does. A paused worker keeps its epoch and may sit
		// anywhere in suspect → quarantined → probation, so for it the bar
		// is presence (its lease recovered), not health.
		rejoinStart := time.Now()
		id := workerID(target)
		err = waitWorkers(ctx, client, coordURL, cfg.Workers, func(ws []grid.WorkerStatus) bool {
			if len(ws) < cfg.Workers {
				return false
			}
			for _, w := range ws {
				if w.ID == id {
					if action == ActionPause {
						return true
					}
					return w.Epoch != oldEpoch && w.State == grid.StateHealthy
				}
			}
			return false
		}, cfg.RejoinBound)
		if err != nil {
			return rep, fmt.Errorf("chaos: round %d: worker %s (%s) not back within %s (seed %d): %w",
				r, id, action, cfg.RejoinBound, cfg.Seed, err)
		}
		round.RejoinAfter = time.Since(rejoinStart)
		rep.Rounds = append(rep.Rounds, round)
		cfg.logf("round %d: ok, %s back after %s", r, id, round.RejoinAfter.Round(time.Millisecond))
	}

	// Phase 4: the full sweep — every study of every round re-read from the
	// coordinator's cache must still be the golden bytes.
	for r := 0; r < cfg.Rounds; r++ {
		for _, fp := range fpsByRound[r] {
			body, err := getStudy(client, coordURL, fp)
			rep.Requests++
			if err != nil {
				rep.Failed++
				return rep, fmt.Errorf("chaos: final sweep GET %s failed (seed %d): %w", fp, cfg.Seed, err)
			}
			if !bytes.Equal(body, golden[fp]) {
				rep.Divergent++
				return rep, fmt.Errorf("chaos: final sweep study %s diverges (seed %d)", fp, cfg.Seed)
			}
		}
	}

	// At least one study over the soak must have produced a fully merged
	// cross-node trace: rounds where the serving worker died before its
	// timeline could be fetched degrade to fetch-failed, but if every
	// round degraded, fan-in never actually worked.
	if rep.MergedTraces == 0 {
		return rep, fmt.Errorf("chaos: no study produced a merged coordinator+worker trace over %d rounds (seed %d)", cfg.Rounds, cfg.Seed)
	}

	// Orderly teardown: stop the supervisors and ensure none of them gave
	// up mid-soak — a crash-looped supervisor is a failed run even if every
	// byte matched, because it means self-healing stopped.
	stopSups()
	wg.Wait()
	for i, err := range supErrs {
		if err != nil {
			return rep, fmt.Errorf("chaos: supervisor %d: %v (seed %d)", i, err, cfg.Seed)
		}
		rep.Restarts += sups[i].Restarts()
	}
	cfg.logf("soak complete: %d requests, %d restarts, %d federated scrapes, %d merged traces, zero failures, zero divergence",
		rep.Requests, rep.Restarts, rep.FederatedScrapes, rep.MergedTraces)
	return rep, nil
}

// waitHTTP polls url until it answers 200.
func waitHTTP(ctx context.Context, client *http.Client, url string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("chaos: %s not healthy after %s", url, d)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// workerEpoch reads the worker's currently registered epoch (0 when the
// listing is unreachable or the worker is absent).
func workerEpoch(client *http.Client, coordURL, id string) uint64 {
	resp, err := client.Get(coordURL + "/v1/grid/workers")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var wb workersBody
	if err := json.NewDecoder(resp.Body).Decode(&wb); err != nil {
		return 0
	}
	for _, w := range wb.Workers {
		if w.ID == id {
			return w.Epoch
		}
	}
	return 0
}

// workersBody mirrors the GET /v1/grid/workers response.
type workersBody struct {
	Workers []grid.WorkerStatus `json:"workers"`
}

// waitWorkers polls the coordinator's worker listing until ok(workers)
// holds.
func waitWorkers(ctx context.Context, client *http.Client, coordURL string, n int, ok func([]grid.WorkerStatus) bool, d time.Duration) error {
	deadline := time.Now().Add(d)
	var last []byte
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		resp, err := client.Get(coordURL + "/v1/grid/workers")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			last = body
			var wb workersBody
			if json.Unmarshal(body, &wb) == nil && ok(wb.Workers) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met after %s; last listing: %s", d, last)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// postSuite submits one suite and returns its fingerprints.
func postSuite(client *http.Client, coordURL string, studies []fleet.StudySpec) ([]string, error) {
	body, err := json.Marshal(fleet.SuiteRequest{Studies: studies})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(coordURL+"/v1/suites", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/suites: %d %s", resp.StatusCode, b)
	}
	var sr struct {
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.Unmarshal(b, &sr); err != nil {
		return nil, err
	}
	return sr.Fingerprints, nil
}

// httpGetBody GETs url and returns the body, erroring on non-200.
func httpGetBody(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return string(body), nil
}

// traceBody mirrors the coordinator's GET /v1/trace/{fp} response.
type traceBody struct {
	Nodes []string `json:"nodes"`
	Spans []struct {
		Name   string `json:"name"`
		Node   string `json:"node"`
		Worker string `json:"worker"`
		Error  string `json:"error"`
	} `json:"spans"`
}

// getTrace reads one study's fanned-in timeline from the coordinator.
func getTrace(client *http.Client, coordURL, fp string) (*traceBody, error) {
	body, err := httpGetBody(client, coordURL+"/v1/trace/"+fp)
	if err != nil {
		return nil, err
	}
	var tr traceBody
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// getStudy reads one study's full response body.
func getStudy(client *http.Client, coordURL, fp string) ([]byte, error) {
	resp, err := client.Get(coordURL + "/v1/studies/" + fp)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/studies/%s: %d %s", fp, resp.StatusCode, body)
	}
	return body, nil
}

// waitStopped waits until the process pid is seen stopped (state T in
// /proc/<pid>/stat), for at most bound. kill(2) returns as soon as SIGSTOP
// is queued, and the child's other threads keep serving until one of them
// takes the signal and stops the whole group; on a loaded machine that
// window is long enough for an HTTP request to reach a "paused" worker.
// Without procfs it returns at once, and on timeout it returns too: the
// caller's own checks then report the worker that never stopped.
func waitStopped(pid int, bound time.Duration) {
	deadline := time.Now().Add(bound)
	for time.Now().Before(deadline) {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return
		}
		// The state is the field after the parenthesized command name,
		// which may itself contain spaces or parentheses.
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 && i+2 < len(stat) && (stat[i+2] == 'T' || stat[i+2] == 't') {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
