// Package grid is the multi-node tier of the serving system: a coordinator
// that registers remote relperfd workers, shards a suite's fingerprinted
// studies across them over the daemon's existing HTTP API, verifies every
// reply, and merges the results into the coordinator's own fleet store —
// so snapshots, eviction-recompute and serving work exactly as on a single
// node.
//
// The unit of distribution is the fleet layer's study primitive: a
// content-addressed fingerprint plus a self-contained derived seed
// (StudySeed = Mix(suiteSeed, fingerprintKey)) and a declarative spec,
// carried in a relperf/grid-task/v1 envelope. Because the envelope fully
// determines the study's canonical result bytes, any worker keyed with the
// same suite seed computes exactly what the coordinator would have
// computed locally — which is the grid determinism contract: a grid run of
// a suite is byte-identical to a single-node run at any worker count,
// under any assignment, and across worker failures.
//
// Failure handling is first-class. Studies are assigned by rendezvous
// hashing (Registry.Pick); a failed request marks the worker suspect in
// the registry's health state machine (a streak of failures quarantines
// it out of rotation — see State) and deterministically reassigns the
// study to the next-ranked live worker, and when no worker is available
// (or every attempt failed) Dispatch returns an error, which makes the
// fleet scheduler run the study locally — a degraded grid degrades to a
// single node, never to a failed suite.
package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"relperf"
	"relperf/internal/fleet"
	"relperf/internal/obs"
	"relperf/internal/wal"
	"relperf/internal/xrand"
)

// Defaults for Config's zero values.
const (
	// DefaultMaxAttempts is how many workers a study is offered to before
	// falling back to local execution.
	DefaultMaxAttempts = 3
	// DefaultRequestTimeout caps one remote attempt (submit + stream).
	DefaultRequestTimeout = 10 * time.Minute
	// DefaultRetryBase is the first retry's backoff window.
	DefaultRetryBase = 50 * time.Millisecond
	// DefaultRetryMax caps the exponential backoff growth.
	DefaultRetryMax = 5 * time.Second
	// journalCap bounds the in-memory (serving) dispatch journal; with a
	// WAL attached the full history is durable, this only bounds what
	// GET /v1/grid/tasks returns.
	journalCap = 256
)

// ErrNoWorkers is returned by Dispatch when no live worker is available
// (or none is left after exclusions) — the scheduler's cue to run the
// study locally.
var ErrNoWorkers = errors.New("grid: no live workers")

// Config configures a Coordinator.
type Config struct {
	// Seed is the coordinator's suite seed. Heartbeats from workers keyed
	// with a different seed are rejected: they would compute different
	// bytes for the same fingerprint.
	Seed uint64
	// TTL is the worker-expiry window (default DefaultTTL).
	TTL time.Duration
	// MaxAttempts bounds remote attempts per study (default
	// DefaultMaxAttempts).
	MaxAttempts int
	// RequestTimeout caps one remote attempt end to end (default
	// DefaultRequestTimeout).
	RequestTimeout time.Duration
	// RetryBase is the backoff window before the first reassignment
	// (default DefaultRetryBase). Each further attempt doubles it, capped
	// at RetryMax; the actual delay is drawn deterministically from
	// [window/2, window] keyed by (Seed, fingerprint, attempt), so
	// coordinators with equal seeds retry on identical schedules while a
	// burst of failing studies still spreads instead of thundering onto
	// the next-ranked worker in lockstep.
	RetryBase time.Duration
	// RetryMax caps the backoff window (default DefaultRetryMax).
	RetryMax time.Duration
	// QuarantineThreshold is how many consecutive dispatch failures move
	// a worker from suspect to quarantined (default
	// DefaultQuarantineThreshold).
	QuarantineThreshold int
	// Quarantine is how long a quarantined worker is held out of
	// rotation before its probation re-probe (default DefaultQuarantine).
	Quarantine time.Duration
	// ScrapeTimeout caps one federated scrape of one worker's /v1/metrics
	// and one trace fan-in fetch (default DefaultScrapeTimeout). Scrapes
	// run concurrently, so a whole-fleet federation pass completes within
	// roughly one window regardless of how many workers are unreachable.
	ScrapeTimeout time.Duration
	// Origin names this coordinator on dispatched work: it is stamped as
	// the X-Relperf-Origin header on every study submitted to a worker
	// (the worker records it as an "origin" event on the study's
	// timeline) and tags the coordinator's own spans in fanned-in traces.
	// Default "coordinator".
	Origin string
	// Client is the HTTP client for worker requests; nil means a default
	// client (no global timeout — the per-attempt context enforces one).
	Client *http.Client
	// Journal, when set, makes the dispatch journal durable: every task
	// record is appended to the write-ahead log as a wal.TypeTask record,
	// a checkpoint keeps the serving journal (JournalRecords) once
	// compaction drops those records, and RestoreJournal reloads both at
	// startup — so GET /v1/grid/tasks survives coordinator restarts
	// instead of forgetting every dispatch.
	Journal *wal.Log
	// Logf receives dispatch diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Obs receives the coordinator's metrics (dispatch outcomes, worker
	// liveness, heartbeats) and per-attempt dispatch spans. Share the
	// fleet scheduler's Obs so /v1/metrics serves one unified exposition;
	// nil disables grid observability.
	Obs *obs.Obs
}

// Coordinator shards studies across registered workers. Its Dispatch
// method is the fleet scheduler's dispatch hook; its Handler serves the
// /v1/grid/* registration and observability endpoints.
type Coordinator struct {
	cfg    Config
	reg    *Registry
	client *http.Client
	// sleep waits out a retry backoff; tests replace it to record the
	// schedule instead of paying it.
	sleep func(ctx context.Context, d time.Duration)

	remote    atomic.Uint64 // studies completed on a worker
	retries   atomic.Uint64 // failed attempts that were reassigned
	fallbacks atomic.Uint64 // studies handed back for local execution

	heartbeats     *obs.Counter   // accepted worker heartbeats
	attemptSeconds *obs.Histogram // one remote attempt, success or not
	scrapeFailures *obs.Counter   // failed per-worker federated scrapes

	mu      sync.Mutex
	journal []TaskRecord // newest first, bounded by journalCap

	// scrapes remembers the last federated scrape per worker — the
	// freshness /v1/gridz reports. Its own mutex: scrapes land from
	// concurrent fetch goroutines and must not contend with the journal.
	scrapeMu sync.Mutex
	scrapes  map[string]scrapeState
}

// New returns a coordinator with an empty worker registry.
func New(cfg Config) *Coordinator {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax < cfg.RetryBase {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.Origin == "" {
		cfg.Origin = "coordinator"
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{cfg: cfg, reg: newRegistry(cfg.TTL, cfg.QuarantineThreshold, cfg.Quarantine), client: client, sleep: sleepCtx}
	c.registerMetrics()
	return c
}

// registerMetrics exports the coordinator's counters (kept as atomics
// for the /v1/grid/workers JSON) as scrape-time funcs, plus the worker
// registry's liveness series. Nil cfg.Obs registers nothing and every
// instrument stays a no-op.
func (c *Coordinator) registerMetrics() {
	reg := c.cfg.Obs.Reg()
	reg.CounterFunc("grid_remote_total", "Studies completed on a remote worker.",
		func() float64 { return float64(c.remote.Load()) })
	reg.CounterFunc("grid_retries_total", "Failed remote attempts that were reassigned.",
		func() float64 { return float64(c.retries.Load()) })
	reg.CounterFunc("grid_fallbacks_total", "Studies handed back for local execution.",
		func() float64 { return float64(c.fallbacks.Load()) })
	reg.GaugeFunc("grid_workers_live", "Workers with an unexpired heartbeat lease.",
		func() float64 { return float64(c.reg.Stats().Workers) })
	reg.GaugeFunc("grid_workers_quarantined", "Workers currently held out of rotation by quarantine.",
		func() float64 { return float64(c.reg.Stats().Quarantined) })
	reg.CounterFunc("grid_worker_expiries_total", "Workers expired by a missed heartbeat lease.",
		func() float64 { return float64(c.reg.Stats().Expiries) })
	reg.CounterFunc("grid_worker_failures_total", "Dispatch failures reported against workers.",
		func() float64 { return float64(c.reg.Stats().Failures) })
	reg.CounterFunc("grid_worker_quarantines_total", "Workers quarantined after consecutive dispatch failures.",
		func() float64 { return float64(c.reg.Stats().Quarantines) })
	reg.CounterFunc("grid_worker_recoveries_total", "Quarantined workers restored to healthy by a probation re-probe.",
		func() float64 { return float64(c.reg.Stats().Recoveries) })
	c.heartbeats = reg.Counter("grid_heartbeats_total", "Worker heartbeats accepted.")
	c.attemptSeconds = reg.Histogram("grid_attempt_seconds",
		"One remote dispatch attempt: submit, stream, verify.", nil)
	c.scrapeFailures = reg.Counter("grid_scrape_failures_total",
		"Per-worker federated metric scrapes that failed.")
}

// sleepCtx waits d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// retryDelay computes the backoff before attempt+1: the window doubles
// from RetryBase per completed attempt, capped at RetryMax, and the delay
// within [window/2, window] is drawn by mixing (Seed, fingerprint,
// attempt) — deterministic for a given coordinator key, decorrelated
// across studies.
func (c *Coordinator) retryDelay(fingerprint string, attempt int) time.Duration {
	window := c.cfg.RetryBase
	for i := 1; i < attempt && window < c.cfg.RetryMax; i++ {
		window *= 2
	}
	if window > c.cfg.RetryMax {
		window = c.cfg.RetryMax
	}
	half := window / 2
	jitter := xrand.Mix(xrand.Mix(c.cfg.Seed, fingerprintKey(fingerprint)), uint64(attempt))
	return half + time.Duration(jitter%uint64(half+1))
}

// Registry returns the coordinator's worker registry.
func (c *Coordinator) Registry() *Registry { return c.reg }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// TaskRecord is one dispatched study in the coordinator's journal: the
// relperf/grid-task/v1 envelope plus where it ran and how. Served by
// GET /v1/grid/tasks for operators chasing a slow or bouncing study.
type TaskRecord struct {
	// Task is the study's wire envelope.
	Task json.RawMessage `json:"task"`
	// Worker is the worker that completed it; empty on fallback.
	Worker string `json:"worker,omitempty"`
	// Attempts counts remote attempts, including the successful one.
	Attempts int `json:"attempts"`
	// Outcome is "remote" (a worker served it), "fallback" (handed back
	// for local execution) or "cancelled" (the caller gave up mid-attempt).
	Outcome string `json:"outcome"`
	// Error is the last attempt's failure when Outcome is not "remote".
	Error string `json:"error,omitempty"`

	fp string // the study's fingerprint, which its WAL record is keyed by
}

// record appends to the bounded serving journal (newest first) and, when
// a WAL is attached, journals the record durably. A WAL append failure is
// logged, not returned: the task record is observability, and a full disk
// must not turn a successfully dispatched study into a failed one. (The
// store's own WAL appends — the correctness-bearing ones — do fail their
// operations.) The WAL append happens under mu, accepting the fsync cost
// on this cold path, so the durable order matches the serving journal's
// — after a restart RestoreJournal replays WAL order, and GET
// /v1/grid/tasks must not reorder across the crash.
func (c *Coordinator) record(task relperf.GridTask, worker string, attempts int, outcome string, err error) {
	envelope, merr := task.MarshalWire()
	if merr != nil {
		envelope = []byte("{}")
	}
	rec := TaskRecord{Task: envelope, Worker: worker, Attempts: attempts, Outcome: outcome, fp: task.Fingerprint}
	if err != nil {
		rec.Error = err.Error()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = append([]TaskRecord{rec}, c.journal...)
	if len(c.journal) > journalCap {
		c.journal = c.journal[:journalCap]
	}
	if c.cfg.Journal != nil {
		data, jerr := json.Marshal(&rec)
		if jerr == nil {
			jerr = c.cfg.Journal.Append(wal.Record{Type: wal.TypeTask, Fingerprint: task.Fingerprint, Data: data})
		}
		if jerr != nil {
			c.logf("grid: journaling task record for %s: %v", task.Fingerprint, jerr)
		}
	}
}

// JournalRecords returns the serving journal as WAL task records, oldest
// first — the form a checkpoint keeps it in, since compacting the log
// drops the task records it held.
func (c *Coordinator) JournalRecords() []wal.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := make([]wal.Record, 0, len(c.journal))
	for i := len(c.journal) - 1; i >= 0; i-- {
		if data, err := json.Marshal(&c.journal[i]); err == nil {
			recs = append(recs, wal.Record{Type: wal.TypeTask, Fingerprint: c.journal[i].fp, Data: data})
		}
	}
	return recs
}

// RestoreJournal reloads task records recovered from a checkpoint and the
// write-ahead log (oldest first, as ReplayWAL returns them) into the
// serving journal, so GET /v1/grid/tasks picks up across a restart
// exactly where the dead coordinator left off. Unparseable records are
// skipped with a loud log — the CRC already vouched for the bytes, so a
// parse failure means an incompatible older schema, not corruption worth
// dying over. Returns how many records were restored.
func (c *Coordinator) RestoreJournal(recs []wal.Record) int {
	restored := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range recs {
		tr := TaskRecord{fp: rec.Fingerprint}
		if err := json.Unmarshal(rec.Data, &tr); err != nil {
			c.logf("grid: skipping unparseable task record for %s: %v", rec.Fingerprint, err)
			continue
		}
		c.journal = append([]TaskRecord{tr}, c.journal...)
		restored++
	}
	if len(c.journal) > journalCap {
		c.journal = c.journal[:journalCap]
	}
	return restored
}

// Stats reports the coordinator's dispatch counters.
type Stats struct {
	Remote    uint64 `json:"remote"`
	Retries   uint64 `json:"retries"`
	Fallbacks uint64 `json:"fallbacks"`
}

// Stats returns a snapshot of the dispatch counters.
func (c *Coordinator) Stats() Stats {
	return Stats{Remote: c.remote.Load(), Retries: c.retries.Load(), Fallbacks: c.fallbacks.Load()}
}

// Dispatch runs one study on the grid: pick a worker by rendezvous hash,
// submit the study's spec over the worker's ordinary /v1/suites API,
// stream the result, verify it, and hand the canonical bytes back to the
// scheduler (which merges them into the coordinator's store). A failed
// attempt drops the worker, counts a retry and reassigns; when no worker
// is available or every attempt failed, the returned error makes the
// scheduler fall back to local execution. This is the fleet
// Options.Dispatch hook.
func (c *Coordinator) Dispatch(ctx context.Context, task relperf.GridTask) ([]byte, error) {
	// The envelope's seed must be the one our own suite seed derives —
	// anything else is a mis-keyed scheduler, and serving its result would
	// violate the determinism contract.
	if seed, err := relperf.StudySeed(c.cfg.Seed, task.Fingerprint); err != nil || seed != task.Seed {
		return nil, fmt.Errorf("grid: task %s carries seed %d, coordinator derives %d", task.Fingerprint, task.Seed, seed)
	}
	excluded := make(map[string]bool)
	attempts := 0
	lastErr := ErrNoWorkers
	for attempts < c.cfg.MaxAttempts {
		if attempts > 0 {
			// Back off before reassigning: an immediate rehash lands the
			// study (and every other study the dead worker held) on the
			// next-ranked worker in the same instant, which is how one
			// failure cascades into the next. The delay is deterministic
			// per (seed, study, attempt) — see retryDelay.
			d := c.retryDelay(task.Fingerprint, attempts)
			c.logf("grid: study %s backing off %s before attempt %d", task.Fingerprint, d, attempts+1)
			c.sleep(ctx, d)
			if ctx.Err() != nil {
				c.record(task, "", attempts, "cancelled", ctx.Err())
				return nil, ctx.Err()
			}
		}
		w, ok := c.reg.Pick(task.Fingerprint, excluded)
		if !ok {
			break
		}
		attempts++
		span := obs.Span{Name: "dispatch-attempt", Start: time.Now(), Attempt: attempts, Worker: w.ID}
		blob, err := c.runOn(ctx, w, task)
		span.End = time.Now()
		c.attemptSeconds.Observe(span.End.Sub(span.Start).Seconds())
		if err == nil {
			c.cfg.Obs.Trace().Add(task.Fingerprint, span)
			c.reg.ReportSuccess(w.ID)
			c.remote.Add(1)
			c.record(task, w.ID, attempts, "remote", nil)
			return blob, nil
		}
		span.Error = err.Error()
		c.cfg.Obs.Trace().Add(task.Fingerprint, span)
		lastErr = err
		if ctx.Err() != nil {
			// Not a worker failure and not a fallback: the caller gave up.
			// Record it as its own outcome so the journal reconciles with
			// the dispatch counters.
			c.record(task, w.ID, attempts, "cancelled", err)
			return nil, err
		}
		// The worker failed us: report it to the health machine (one
		// failure marks it suspect, a streak quarantines it — but a single
		// flake never unregisters it), exclude it for this study's
		// remaining attempts, and rehash onto the next-ranked worker.
		c.retries.Add(1)
		excluded[w.ID] = true
		c.reg.ReportFailure(w.ID)
		c.logf("grid: study %s attempt %d on %s failed: %v (reassigning)", task.Fingerprint, attempts, w.ID, err)
	}
	c.fallbacks.Add(1)
	c.record(task, "", attempts, "fallback", lastErr)
	c.logf("grid: study %s falling back to local execution after %d attempts: %v", task.Fingerprint, attempts, lastErr)
	return nil, fmt.Errorf("grid: study %s: %w", task.Fingerprint, lastErr)
}

// suiteResponse mirrors the worker's POST /v1/suites reply.
type suiteResponse struct {
	Fingerprints []string `json:"fingerprints"`
	Seed         uint64   `json:"seed"`
}

// runOn executes one attempt against one worker: submit the single-study
// suite, verify the worker's identity claims (fingerprint and seed — a
// worker running a different engine version or keyed differently is
// detected here, before its result can enter the store), stream the
// result, and verify the bytes are the canonical encoding.
func (c *Coordinator) runOn(ctx context.Context, w WorkerInfo, task relperf.GridTask) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()

	spec, err := relperf.ParseStudySpec(task.Spec)
	if err != nil {
		return nil, fmt.Errorf("grid: task %s spec: %w", task.Fingerprint, err)
	}
	body, err := json.Marshal(fleet.SuiteRequest{Studies: []fleet.StudySpec{*spec}})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+"/v1/suites", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// The origin stamp: the worker records it as an "origin" event on the
	// study's timeline, so a fanned-in trace shows not just what the worker
	// did but on whose behalf.
	req.Header.Set(fleet.OriginHeader, c.cfg.Origin)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("grid: submitting to %s: %w", w.ID, err)
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("grid: reading submit reply from %s: %w", w.ID, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("grid: worker %s rejected the study: %d %s", w.ID, resp.StatusCode, respBody)
	}
	var sr suiteResponse
	if err := json.Unmarshal(respBody, &sr); err != nil {
		return nil, fmt.Errorf("grid: submit reply from %s: %w", w.ID, err)
	}
	if sr.Seed != c.cfg.Seed {
		return nil, fmt.Errorf("grid: worker %s runs seed %d, coordinator %d", w.ID, sr.Seed, c.cfg.Seed)
	}
	if len(sr.Fingerprints) != 1 || sr.Fingerprints[0] != task.Fingerprint {
		return nil, fmt.Errorf("grid: worker %s fingerprints the study as %v, coordinator as %s (engine skew)", w.ID, sr.Fingerprints, task.Fingerprint)
	}

	blob, err := c.streamResult(ctx, w, task.Fingerprint)
	if err != nil {
		return nil, err
	}
	// The scheduler re-verifies before merging (its Dispatch hook is
	// generic and cannot assume a verifying dispatcher); this check is
	// deliberately redundant with that one because failing HERE is what
	// attributes a bad reply to the worker — dropping it and retrying the
	// study elsewhere instead of silently degrading to local execution.
	if _, err := relperf.VerifyGridResult(task, blob); err != nil {
		return nil, fmt.Errorf("grid: worker %s: %w", w.ID, err)
	}
	return blob, nil
}
