package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"relperf"
	"relperf/internal/obs"
)

// ErrUnknownStudy is returned by Result for a fingerprint no suite ever
// submitted: it is not cached, not in flight, and no spec is retained to
// recompute it from.
var ErrUnknownStudy = errors.New("fleet: unknown study fingerprint")

// ErrClosed is returned once the scheduler has shut down.
var ErrClosed = errors.New("fleet: scheduler closed")

// Options configures a Scheduler.
type Options struct {
	// Workers is the global concurrency budget shared by every work unit
	// of every study the scheduler runs (0 means GOMAXPROCS).
	Workers int
	// Seed is the suite seed: every study's seed derives from it and the
	// study's fingerprint, so schedulers with equal seeds produce
	// bit-identical cached results whatever their budget or load.
	Seed uint64
	// Store is the result cache; nil means a fresh unbounded store.
	Store *Store
	// Dispatch, when set, is offered each study before local execution:
	// the grid coordinator uses it to shard studies onto remote relperfd
	// workers. It receives the study's self-contained task envelope
	// (fingerprint, derived seed, declarative spec) and returns the
	// study's canonical result bytes. Any dispatch error — no workers, all
	// retries exhausted, an unverifiable reply — falls back to local
	// execution, so a degraded grid degrades to a single node, never to a
	// failed suite.
	Dispatch func(ctx context.Context, task relperf.GridTask) ([]byte, error)
	// Obs receives the scheduler's metrics and study traces; nil means a
	// private obs.New(), so the /v1/metrics, /v1/statz and /v1/trace
	// endpoints work on every scheduler. Share one Obs across the
	// scheduler, WAL and grid coordinator to serve a single unified
	// exposition.
	Obs *obs.Obs
}

// Phase tags the stage of a StudyEvent.
type Phase string

const (
	// PhaseComputing is published when a study's computation starts.
	PhaseComputing Phase = "computing"
	// PhaseDone is published when a study completes (Result or Err set).
	PhaseDone Phase = "done"
)

// StudyEvent is streamed to subscribers as each study starts computing and
// again as it completes.
type StudyEvent struct {
	// Fingerprint identifies the study.
	Fingerprint string
	// Phase is the stage this event reports.
	Phase Phase
	// Result is the completed result (nil unless Phase is PhaseDone and
	// the study succeeded).
	Result *relperf.Result
	// Err is the study's failure, if it failed.
	Err error
}

// Scheduler runs studies addressed by config fingerprint on one shared
// worker budget. Every fingerprint computes at most once at a time: cached
// results are served from the store, and concurrent requests for the same
// uncached fingerprint coalesce onto a single in-flight computation
// (single-flight). Completed results stream to subscribers.
type Scheduler struct {
	opts   Options
	budget *relperf.Budget
	store  *Store

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	inflight map[string]*flight

	computes atomic.Uint64

	// Metric instruments, registered once in New (see metrics.go). All
	// nil-safe, so a test constructing a Scheduler literal records into
	// no-ops instead of panicking.
	obs          *obs.Obs
	coalesced    *obs.Counter
	studyErrors  *obs.Counter
	subsDropped  *obs.Counter
	queueWait    *obs.Histogram
	studySeconds *obs.Histogram
	stageHists   map[string]*obs.Histogram

	subMu   sync.Mutex
	subs    map[int]chan StudyEvent
	nextSub int
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done    chan struct{}
	created time.Time // when the flight entered the in-flight set
	blob    []byte
	res     *relperf.Result
	err     error
}

// New returns a running scheduler.
func New(opts Options) *Scheduler {
	if opts.Store == nil {
		opts.Store = NewStore(0)
	}
	if opts.Obs == nil {
		opts.Obs = obs.New()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opts:     opts,
		budget:   relperf.NewBudget(opts.Workers),
		store:    opts.Store,
		obs:      opts.Obs,
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[string]*flight),
		subs:     make(map[int]chan StudyEvent),
	}
	s.registerMetrics()
	return s
}

// Obs returns the scheduler's observability surfaces.
func (s *Scheduler) Obs() *obs.Obs { return s.obs }

// Seed returns the scheduler's suite seed.
func (s *Scheduler) Seed() uint64 { return s.opts.Seed }

// Store returns the scheduler's result store.
func (s *Scheduler) Store() *Store { return s.store }

// Workers returns the global budget width.
func (s *Scheduler) Workers() int { return s.budget.Workers() }

// Computes returns how many study computations have started — the counter
// the cache-hit and single-flight tests assert on.
func (s *Scheduler) Computes() uint64 { return s.computes.Load() }

// Inflight returns the number of studies currently computing.
func (s *Scheduler) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Computing reports whether the fingerprint is currently in flight — the
// probe the SSE streaming handler uses to pick a study's initial phase.
func (s *Scheduler) Computing(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.inflight[fp]
	return ok
}

// Known reports whether the scheduler can serve the fingerprint at all: a
// cached result, an in-flight computation, or a retained spec to
// recompute from. The SSE handler checks this before telling a subscriber
// a study is queued — a fingerprint nobody ever submitted must stream only
// its error, never a status implying it exists.
func (s *Scheduler) Known(fp string) bool {
	s.mu.Lock()
	_, inflight := s.inflight[fp]
	s.mu.Unlock()
	if inflight || s.store.Contains(fp) {
		return true
	}
	_, ok := s.store.Spec(fp)
	return ok
}

// SubmitSpecs registers a suite of declarative study specs and returns
// their fingerprints in input order. Uncached studies start computing in
// the background; duplicates (within the suite or against the cache and
// in-flight work) cost nothing. SubmitSpecs is the only way a study enters
// the scheduler. Beyond resolving each spec to a runnable study, it retains
// the spec's canonical wire JSON in the store, where the WAL and snapshots
// persist it: Result re-resolves the spec to recompute any result the LRU
// has evicted, so eviction never turns a submitted study into a 404 — in
// this process or after a restart. No computation starts and no spec is
// retained when any spec is invalid.
func (s *Scheduler) SubmitSpecs(specs []StudySpec) ([]string, error) {
	if len(specs) == 0 {
		return nil, errors.New("fleet: no study specs")
	}
	fps := make([]string, len(specs))
	studies := make([]*relperf.Study, len(specs))
	blobs := make([][]byte, len(specs))
	for i := range specs {
		cfg, err := specs[i].Config()
		if err != nil {
			return nil, fmt.Errorf("fleet: study %d: %w", i, err)
		}
		study, fp, err := relperf.NewKeyedStudy(cfg, s.opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("fleet: study %d: %w", i, err)
		}
		blob, err := json.Marshal(&specs[i])
		if err != nil {
			return nil, fmt.Errorf("fleet: study %d: encoding spec: %w", i, err)
		}
		studies[i], fps[i], blobs[i] = study, fp, blob
	}
	// Every spec is retained (journaled) before any study starts, so a
	// fast study's result can never reach the WAL ahead of a later spec of
	// the same suite. A spec the journal refused is a study we must not
	// promise: after a crash the daemon could neither serve nor recompute
	// it.
	for i, fp := range fps {
		if err := s.store.PutSpec(fp, blobs[i]); err != nil {
			return nil, err
		}
	}
	for i, fp := range fps {
		if _, err := s.ensure(fp, studies[i]); err != nil {
			return nil, err
		}
	}
	return fps, nil
}

// Result returns the encoded result for a fingerprint: from the cache, by
// waiting for the in-flight computation, or — for a study whose result was
// LRU-evicted — by recomputing it from the declarative spec the store
// retains (SubmitSpecs journals it; the WAL and snapshots carry it across
// restarts). Fingerprints with none of those return ErrUnknownStudy: the
// scheduler cannot reconstruct a config from its hash alone.
func (s *Scheduler) Result(ctx context.Context, fp string) ([]byte, error) {
	for {
		if blob, ok := s.store.Get(fp); ok {
			return blob, nil
		}
		s.mu.Lock()
		f, ok := s.inflight[fp]
		s.mu.Unlock()
		if ok {
			s.coalesced.Inc()
			return s.wait(ctx, f)
		}
		// The flight may have landed between the cache miss and the lock;
		// completions publish to the store before leaving the in-flight
		// set, so a second absence means the result was evicted (or never
		// computed). Contains, not Get: one logical lookup should count at
		// most one miss — the top of the loop fetches (and counts the hit).
		if s.store.Contains(fp) {
			continue
		}
		study, err := s.studyFromSpec(fp)
		if err != nil {
			return nil, err
		}
		f, err = s.ensure(fp, study)
		if err != nil {
			return nil, err
		}
		if f != nil {
			return s.wait(ctx, f)
		}
		// ensure saw a cached result (a racing recompute landed); loop to
		// fetch it.
	}
}

// studyFromSpec rebuilds a runnable study from the spec the store retains
// for the fingerprint (submitted in this process, or restored from the WAL
// or a snapshot). The resolved spec must fingerprint back to fp — a
// mismatch means the spec was written by an engine with different result
// semantics, and serving a recompute under the old identity would break
// the determinism contract.
func (s *Scheduler) studyFromSpec(fp string) (*relperf.Study, error) {
	raw, ok := s.store.Spec(fp)
	if !ok {
		return nil, ErrUnknownStudy
	}
	spec, err := relperf.ParseStudySpec(raw)
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot spec for %s: %w", fp, err)
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot spec for %s: %w", fp, err)
	}
	study, got, err := relperf.NewKeyedStudy(cfg, s.opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot spec for %s: %w", fp, err)
	}
	if got != fp {
		return nil, fmt.Errorf("fleet: snapshot spec for %s resolves to fingerprint %s (schema or engine changed); resubmit the suite", fp, got)
	}
	return study, nil
}

// wait blocks until the flight completes or ctx is cancelled. A cancelled
// waiter abandons only its wait — the computation keeps running for the
// other subscribers and the cache.
func (s *Scheduler) wait(ctx context.Context, f *flight) ([]byte, error) {
	select {
	case <-f.done:
		return f.blob, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ensure arranges for fp's result to exist: a cache hit returns (nil, nil),
// and an in-flight or newly started computation returns its flight. This
// is the single-flight point — at most one computation per fingerprint
// exists at any moment.
func (s *Scheduler) ensure(fp string, study *relperf.Study) (*flight, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if f, ok := s.inflight[fp]; ok {
		s.coalesced.Inc()
		return f, nil
	}
	// Contains, not Get: an existence probe must not inflate the hit
	// counters or refresh LRU recency for results nobody fetched.
	if s.store.Contains(fp) {
		return nil, nil
	}
	f := &flight{done: make(chan struct{}), created: time.Now()}
	s.inflight[fp] = f
	s.wg.Add(1)
	go s.compute(f, fp, study)
	return f, nil
}

// compute runs one study — remotely through the dispatch hook when one is
// set, locally on the shared budget otherwise — and publishes the outcome:
// store first (a Merge, so a conflicting duplicate fails loudly instead of
// silently overwriting), then the in-flight set, then the subscribers.
// Errors are not cached — a later request retries.
func (s *Scheduler) compute(f *flight, fp string, study *relperf.Study) {
	defer s.wg.Done()
	s.computes.Add(1)
	tr := s.obs.Trace()
	start := time.Now()
	s.queueWait.Observe(start.Sub(f.created).Seconds())
	tr.Add(fp, obs.Span{Name: "queued", Start: f.created, End: start})
	s.publish(StudyEvent{Fingerprint: fp, Phase: PhaseComputing})
	f.blob, f.res, f.err = s.run(fp, study)
	if f.err == nil {
		f.err = s.store.Merge(fp, f.blob)
	}
	if f.err != nil {
		f.blob, f.res = nil, nil
	}
	s.mu.Lock()
	delete(s.inflight, fp)
	s.mu.Unlock()
	close(f.done)
	end := time.Now()
	s.studySeconds.Observe(end.Sub(start).Seconds())
	if f.res != nil {
		// Engine stage timings: one histogram observation and one trace
		// span per stage, recorded after the run — never inside it.
		for _, st := range f.res.Stages {
			s.stageHists[st.Name].Observe(st.Seconds)
			tr.Add(fp, obs.Span{Name: "stage:" + st.Name, Start: st.Start, Seconds: st.Seconds})
		}
	}
	doneSpan := obs.Span{Name: "done", Start: end}
	if f.err != nil {
		s.studyErrors.Inc()
		slog.Warn("study failed", "fp", fp, "err", f.err)
		doneSpan.Error = f.err.Error()
	}
	tr.Add(fp, doneSpan)
	s.publish(StudyEvent{Fingerprint: fp, Phase: PhaseDone, Result: f.res, Err: f.err})
}

// run executes a study (already validated and seeded by NewKeyedStudy)
// and encodes the result. With a dispatch hook the study's retained spec
// is offered to the grid first; a dispatched result only counts if it
// parses back — anything else falls back to local execution, which the
// determinism contract guarantees produces the identical bytes.
func (s *Scheduler) run(fp string, study *relperf.Study) ([]byte, *relperf.Result, error) {
	tr := s.obs.Trace()
	if s.opts.Dispatch != nil {
		if spec, ok := s.store.Spec(fp); ok {
			if seed, err := relperf.StudySeed(s.opts.Seed, fp); err == nil {
				task := relperf.GridTask{Fingerprint: fp, Seed: seed, Spec: spec}
				span := obs.Span{Name: "dispatched", Start: time.Now()}
				blob, err := s.opts.Dispatch(s.ctx, task)
				if err == nil {
					var res *relperf.Result
					if res, err = relperf.VerifyGridResult(task, blob); err == nil {
						span.End = time.Now()
						tr.Add(fp, span)
						return blob, res, nil
					}
				}
				// The coordinator records per-attempt spans; this umbrella
				// span records why the grid path as a whole was abandoned.
				span.End = time.Now()
				span.Error = err.Error()
				span.Detail = "falling back to local execution"
				tr.Add(fp, span)
			}
		}
	}
	span := obs.Span{Name: "computing", Start: time.Now()}
	res, err := study.RunOn(s.ctx, s.budget)
	span.End = time.Now()
	if err != nil {
		span.Error = err.Error()
		tr.Add(fp, span)
		return nil, nil, err
	}
	tr.Add(fp, span)
	blob, err := res.MarshalWire()
	if err != nil {
		return nil, nil, err
	}
	return blob, res, nil
}

// Subscribe returns a channel streaming every study's phase events
// (computing, then done) and a cancel function. Sends never block the
// engine: a subscriber whose buffer is full when an event arrives is
// disconnected — its channel is closed and removed — rather than
// silently skipped, so a consumer always knows its view is either
// complete or over. buffer <= 0 means 16. cancel is idempotent and safe
// after a disconnect.
func (s *Scheduler) Subscribe(buffer int) (<-chan StudyEvent, func()) {
	if buffer <= 0 {
		buffer = 16
	}
	ch := make(chan StudyEvent, buffer)
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.subMu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			s.subMu.Lock()
			delete(s.subs, id)
			s.subMu.Unlock()
		})
	}
	return ch, cancel
}

// publish fans an event out to every subscriber without ever blocking
// the engine. A subscriber whose buffer is full is dropped: deleted
// from the set and its channel closed, which the consumer observes as
// end-of-stream. Closing here is safe because every send to a
// subscriber channel happens in this function, under subMu — there is
// no racing sender to panic. A silent per-event drop (the old
// behaviour) is worse than a disconnect: a consumer that missed a
// "done" event would wait on a phase that already happened, with no
// way to know its view had gaps.
func (s *Scheduler) publish(ev StudyEvent) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for id, ch := range s.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: disconnect rather than stall the engine
			delete(s.subs, id)
			close(ch)
			s.subsDropped.Inc()
		}
	}
}

// Close cancels every in-flight study, waits for them to drain and rejects
// future submissions. The store and its contents survive for snapshotting.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}
