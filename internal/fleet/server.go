package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"relperf/internal/obs"
	"relperf/internal/wal"
)

// Server is the HTTP face of a Scheduler:
//
//	GET  /v1/healthz                  liveness + engine counters
//	POST /v1/suites                   submit a suite, receive fingerprints
//	GET  /v1/studies                  enumerate known studies (paginated)
//	GET  /v1/studies/{fingerprint}    the study's canonical result JSON
//
// A GET for a submitted-but-still-computing study blocks until the result
// lands (coalescing onto the single in-flight computation); a GET for a
// never-submitted fingerprint is 404 — the server cannot invert a hash
// back into a config. With ?wait=stream the study GET serves Server-Sent
// Events instead of blocking silently: status events (queued, computing)
// as the study progresses, then a result event carrying the canonical
// JSON — the subscription the grid coordinator rides so it never polls a
// worker.
type Server struct {
	sched        *Scheduler
	mux          *http.ServeMux
	maxStudyCost int64
	streamBuf    int
	start        time.Time

	// traceNode/traceFetch enable cross-node trace fan-in on
	// GET /v1/trace/{fp}; see WithTraceFanIn.
	traceNode  string
	traceFetch TraceFetch

	// draining is closed by DrainStreams at shutdown; open SSE streams
	// observe it, emit a terminal "shutdown" event and disconnect, so
	// clients see an explicit end-of-stream instead of a cut connection.
	draining  chan struct{}
	drainOnce sync.Once
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// OriginHeader is the request header a dispatching coordinator stamps on
// the POST /v1/suites it sends a worker. The worker records the value as
// an "origin" event on each submitted study's timeline, so a fanned-in
// trace shows on whose behalf the worker computed.
const OriginHeader = "X-Relperf-Origin"

// TraceFetch is the remote half of cross-node trace fan-in: given a
// fingerprint, return the owning node's ID and its timeline spans
// (already tagged with that node), or an error when the owner is known
// but unreachable. ("", nil, nil) means the study has no remote half.
type TraceFetch func(ctx context.Context, fp string) (node string, spans []obs.Span, err error)

// WithTraceFanIn makes GET /v1/trace/{fp} serve merged cross-node
// timelines: the local spans are tagged with localNode, fetch supplies
// the owning worker's spans, and the response interleaves both by start
// time. A fetch error degrades gracefully — local spans only, plus a
// loud fetch-failed event naming the unreachable node. This is how the
// grid coordinator turns a split coordinator/worker timeline into one
// response.
func WithTraceFanIn(localNode string, fetch TraceFetch) ServerOption {
	return func(s *Server) {
		s.traceNode = localNode
		s.traceFetch = fetch
	}
}

// WithMaxStudyCost bounds the admission-control cost estimate
// (placements × measurements × reps, see relperf.StudySpec.CostEstimate)
// of any single submitted study; suites containing a costlier spec are
// rejected with HTTP 429 and the estimate in the body. 0 means unbounded —
// the right setting for trusted suites, not for a public endpoint.
func WithMaxStudyCost(max int64) ServerOption {
	return func(s *Server) { s.maxStudyCost = max }
}

// WithStreamBuffer sets the per-subscriber event buffer each SSE stream
// holds (default 64). A stream that falls this many events behind is
// disconnected by the scheduler rather than back-pressuring publication;
// the stream reports the gap with a "lagged" event and still delivers
// the authoritative result. <= 0 keeps the default.
func WithStreamBuffer(n int) ServerOption {
	return func(s *Server) { s.streamBuf = n }
}

// NewServer wires the routes. Every route is wrapped in the obs HTTP
// middleware, labeled with its registration pattern (passed explicitly —
// go.mod targets Go 1.22, which predates http.Request.Pattern), so
// /v1/metrics carries per-route latency histograms and status-class
// counters for the whole API surface, including itself.
func NewServer(sched *Scheduler, opts ...ServerOption) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux(), start: time.Now(), draining: make(chan struct{})}
	for _, opt := range opts {
		opt(s)
	}
	s.handle("GET /v1/healthz", s.handleHealthz)
	s.handle("POST /v1/suites", s.handleSuites)
	s.handle("GET /v1/studies", s.handleStudyIndex)
	s.handle("GET /v1/studies/{fingerprint}", s.handleStudy)
	s.handle("GET /v1/studies/{fingerprint}/summary", s.handleStudySummary)
	s.handle("POST /v1/replica/snapshot", s.handleReplicaSnapshot)
	s.handle("GET /v1/metrics", s.handleMetrics)
	s.handle("GET /v1/statz", s.handleStatz)
	s.handle("GET /v1/trace/{fingerprint}", s.handleTrace)
	return s
}

// handle registers an instrumented route.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, obs.Instrument(s.sched.Obs().Reg(), pattern, h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// DrainStreams tells every open SSE stream to finish: each one writes a
// terminal "shutdown" event and disconnects. Call it before
// http.Server.Shutdown — Shutdown waits for active handlers, and an SSE
// stream parked on a long computation would otherwise pin the daemon
// until the shutdown deadline guillotines it mid-stream. Idempotent.
func (s *Server) DrainStreams() {
	s.drainOnce.Do(func() { close(s.draining) })
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// buildInfo identifies the running binary: Go toolchain version and,
// when the binary was built from a VCS checkout, the revision it was
// built at — the first thing to pin down when two nodes disagree.
type buildInfo struct {
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

var (
	buildInfoOnce   sync.Once
	buildInfoCached buildInfo
)

// readBuildInfo extracts the binary's build identity once; `go test`
// binaries and non-VCS builds simply lack the vcs.* fields.
func readBuildInfo() buildInfo {
	buildInfoOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfoCached.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfoCached.VCSRevision = s.Value
			case "vcs.time":
				buildInfoCached.VCSTime = s.Value
			case "vcs.modified":
				buildInfoCached.VCSModified = s.Value == "true"
			}
		}
	})
	return buildInfoCached
}

// healthResponse is the GET /v1/healthz body.
type healthResponse struct {
	Status        string    `json:"status"`
	Seed          uint64    `json:"seed"`
	Workers       int       `json:"workers"`
	Computes      uint64    `json:"computes"`
	Inflight      int       `json:"inflight"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Build         buildInfo `json:"build"`
	Store         Stats     `json:"store"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        "ok",
		Seed:          s.sched.Seed(),
		Workers:       s.sched.Workers(),
		Computes:      s.sched.Computes(),
		Inflight:      s.sched.Inflight(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         readBuildInfo(),
		Store:         s.sched.Store().Stats(),
	})
}

// handleMetrics serves GET /v1/metrics: the shared registry in
// Prometheus text exposition format 0.0.4, hand-rolled (go.mod stays
// dependency-free). When the daemon shares one Obs across scheduler,
// store, WAL and grid coordinator, this is the single unified scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.sched.Obs().Reg().WritePrometheus(w)
}

// statzResponse is the GET /v1/statz body: the same instruments as
// /v1/metrics, as structured JSON for humans and scripts, plus tracer
// occupancy.
type statzResponse struct {
	Metrics []obs.MetricSnapshot `json:"metrics"`
	Tracer  obs.TracerStats      `json:"tracer"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	snap := s.sched.Obs().Reg().Snapshot()
	if snap == nil {
		snap = []obs.MetricSnapshot{}
	}
	writeJSON(w, http.StatusOK, statzResponse{Metrics: snap, Tracer: s.sched.Obs().Trace().Stats()})
}

// traceResponse is the GET /v1/trace/{fingerprint} body: the study's
// lifecycle spans in arrival order (queued → dispatched → computing →
// stage:* → done), with durations and attempt/worker annotations. With
// trace fan-in enabled (the coordinator), spans from every node are
// merged by start time, each tagged with the node it came from, and
// Nodes lists the nodes that contributed in first-appearance order.
type traceResponse struct {
	Fingerprint string     `json:"fingerprint"`
	Nodes       []string   `json:"nodes,omitempty"`
	Spans       []obs.Span `json:"spans"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	spans, ok := s.sched.Obs().Trace().Timeline(fp)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("fleet: no trace for fingerprint %s (never computed here, or evicted from the bounded trace ring)", fp)})
		return
	}
	if s.traceFetch == nil {
		writeJSON(w, http.StatusOK, traceResponse{Fingerprint: fp, Spans: spans})
		return
	}
	// Fan-in: tag the local half, fetch the owning worker's half, merge.
	for i := range spans {
		spans[i].Node = s.traceNode
	}
	node, remote, err := s.traceFetch(r.Context(), fp)
	if err != nil {
		// Degrade loudly, not silently: the local half still serves, and
		// the fetch-failed event names the node whose half is missing.
		spans = append(spans, obs.Span{
			Name:   "fetch-failed",
			Start:  time.Now(),
			Node:   s.traceNode,
			Worker: node,
			Error:  err.Error(),
		})
	} else {
		spans = append(spans, remote...)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var nodes []string
	seen := map[string]bool{}
	for _, sp := range spans {
		if sp.Node != "" && !seen[sp.Node] {
			seen[sp.Node] = true
			nodes = append(nodes, sp.Node)
		}
	}
	writeJSON(w, http.StatusOK, traceResponse{Fingerprint: fp, Nodes: nodes, Spans: spans})
}

// suiteResponse is the POST /v1/suites body: one fingerprint per submitted
// study, in input order — the keys to poll GET /v1/studies/{fp} with.
type suiteResponse struct {
	Fingerprints []string `json:"fingerprints"`
	Seed         uint64   `json:"seed"`
}

// maxSuiteBody bounds POST /v1/suites bodies; suite specs are a few KB,
// so 1 MiB is generous while keeping one request from buffering the
// daemon into the ground.
const maxSuiteBody = 1 << 20

// costResponse is the HTTP 429 body of a spec rejected by admission
// control: which study was over the line, its estimate, the bound, and
// when to try again (mirroring the Retry-After header).
type costResponse struct {
	Error             string `json:"error"`
	Study             int    `json:"study"`
	Cost              int64  `json:"cost"`
	MaxStudyCost      int64  `json:"max_study_cost"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// maxRetryAfter caps the advertised 429 back-off; past a minute the queue
// depth says "come back later", not "come back in exactly N seconds".
const maxRetryAfter = 60

// retryAfterSeconds derives the 429 Retry-After hint from the scheduler's
// queue depth: an idle daemon invites an immediate retry with a smaller
// spec, a backed-up one pushes clients out roughly a second per queued
// study, capped at maxRetryAfter.
func (s *Server) retryAfterSeconds() int {
	sec := 1 + s.sched.Inflight()
	if sec > maxRetryAfter {
		sec = maxRetryAfter
	}
	return sec
}

func (s *Server) handleSuites(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSuiteRequest(http.MaxBytesReader(w, r.Body, maxSuiteBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Admission control happens after validation but before any submission
	// or spec retention: a hostile spec is priced and refused while it is
	// still just bytes.
	if s.maxStudyCost > 0 {
		for i := range req.Studies {
			if cost := req.Studies[i].CostEstimate(); cost > s.maxStudyCost {
				retry := s.retryAfterSeconds()
				w.Header().Set("Retry-After", strconv.Itoa(retry))
				writeJSON(w, http.StatusTooManyRequests, costResponse{
					Error: fmt.Sprintf("fleet: study %d estimated cost %d exceeds the admission bound %d (placements × measurements × reps)",
						i, cost, s.maxStudyCost),
					Study:             i,
					Cost:              cost,
					MaxStudyCost:      s.maxStudyCost,
					RetryAfterSeconds: retry,
				})
				return
			}
		}
	}
	// Beyond starting the studies, SubmitSpecs retains each spec's wire
	// JSON in the store, so evictions stay recomputable after a restart.
	fps, err := s.sched.SubmitSpecs(req.Studies)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	// A dispatching coordinator stamps its identity on the request; record
	// it on each study's timeline so the fanned-in trace names the origin.
	if origin := r.Header.Get(OriginHeader); origin != "" {
		tr := s.sched.Obs().Trace()
		for _, fp := range fps {
			tr.Event(fp, "origin", origin)
		}
	}
	writeJSON(w, http.StatusAccepted, suiteResponse{Fingerprints: fps, Seed: s.sched.Seed()})
}

// maxReplicaBody bounds POST /v1/replica/snapshot bodies. Checkpoints
// carry whole result sets, so the bound is generous — but still a bound.
const maxReplicaBody = 256 << 20

// replicaResponse is the POST /v1/replica/snapshot success body.
type replicaResponse struct {
	Merged int    `json:"merged"`
	Seed   uint64 `json:"seed"`
}

// handleReplicaSnapshot is the standby side of replication: a daemon
// pushes each checkpoint here and the store absorbs it with MergeSnapshot
// (every record validated before any is applied). A body that is not a
// valid checkpoint is 400 and changes nothing. Seed mismatches and byte
// conflicts are 409 — a standby never overwrites what it already serves,
// and never accepts another seed's bytes; both would break the failover
// byte-identity contract.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	n, err := s.sched.Store().MergeSnapshot(http.MaxBytesReader(w, r.Body, maxReplicaBody), s.sched.Seed())
	switch {
	case errors.Is(err, wal.ErrSeedMismatch), errors.Is(err, ErrMergeConflict):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, replicaResponse{Merged: n, Seed: s.sched.Seed()})
	}
}

// studyCacheControl is the Cache-Control of a served study: results are
// content-addressed and the determinism contract makes them immutable, so
// CDNs and client caches may hold them forever.
const studyCacheControl = "public, max-age=31536000, immutable"

// etagMatches reports whether an If-None-Match header value matches the
// study's ETag: "*", or any member of the comma-separated list equal to
// the quoted fingerprint (weak validators compare equal — the bytes
// behind a fingerprint never change, so W/ prefixes are immaterial).
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if r.URL.Query().Get("wait") == "stream" {
		s.handleStudyStream(w, r, fp)
		return
	}
	// Results are content-addressed: the fingerprint IS the ETag, so
	// revalidation needs no byte comparison — and a conditional hit on a
	// known study short-circuits before Result, skipping even the
	// recompute an evicted study would otherwise pay. Unknown fingerprints
	// fall through to the ordinary 404 path: a 304 must never vouch for a
	// study this daemon cannot serve.
	etag := `"` + fp + `"`
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) && s.sched.Known(fp) {
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", studyCacheControl)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	blob, err := s.sched.Result(r.Context(), fp)
	switch {
	case errors.Is(err, ErrUnknownStudy):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	default:
		// The blob is the study's canonical encoding; serving it verbatim
		// is what makes responses byte-identical across cache hits, worker
		// counts and daemon restarts. The newline is written separately:
		// appending to the shared cached slice would race between handlers.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", studyCacheControl)
		w.Write(blob)
		w.Write([]byte{'\n'})
	}
}

// handleStudySummary serves GET /v1/studies/{fp}/summary: the study's
// per-algorithm quantile digest (selected quantiles, min/max/mean, and
// the sketch mode's error bound) without shipping the full result
// document — the dashboard surface sketch mode was built for. Exact-mode
// studies get a reduced summary computed from the stored samples. The
// encoded body is built once per cached entry (Store.Summary) and served
// verbatim after that. Like the full-result GET, an in-flight study blocks
// until its result lands.
func (s *Server) handleStudySummary(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	blob, err := s.sched.Result(r.Context(), fp)
	switch {
	case errors.Is(err, ErrUnknownStudy):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	body, err := s.sched.Store().Summary(fp, blob)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// writeSSE emits one Server-Sent Event. Data must be newline-free — the
// canonical result encoding is compact JSON, which is.
func writeSSE(w http.ResponseWriter, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
}

// handleStudyStream serves GET /v1/studies/{fp}?wait=stream: an SSE stream
// of the study's lifecycle — queued and computing status events off the
// scheduler's subscriber channel, then a single result (or error) event —
// so a caller tracking many studies holds one idle connection per study
// instead of polling. The stream subscribes before attaching to the
// result, so no phase transition between the two can be missed; the
// blocking Result call (not the lossy subscriber channel) is the
// authoritative completion signal.
func (s *Server) handleStudyStream(w http.ResponseWriter, r *http.Request, fp string) {
	buf := s.streamBuf
	if buf <= 0 {
		buf = 64
	}
	events, cancel := s.sched.Subscribe(buf)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	type outcome struct {
		blob []byte
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		blob, err := s.sched.Result(r.Context(), fp)
		done <- outcome{blob, err}
	}()

	// Initial status: cached results go straight to the result event (the
	// Result call above returns immediately), unknown fingerprints
	// straight to the error event — a status first would imply a
	// nonexistent study is pending. Otherwise report where the study
	// currently stands.
	if !s.sched.Store().Contains(fp) && s.sched.Known(fp) {
		if s.sched.Computing(fp) {
			writeSSE(w, "computing", []byte("{}"))
		} else {
			writeSSE(w, "queued", []byte("{}"))
		}
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				// The scheduler disconnected us for falling behind (see
				// Scheduler.publish). Status events are best-effort; the
				// authoritative Result call below still completes, so tell
				// the client its phase view lagged and keep waiting for the
				// result instead of killing the stream.
				writeSSE(w, "lagged", []byte("{}"))
				events = nil // a nil channel blocks: select on done/ctx only
				continue
			}
			if ev.Fingerprint == fp && ev.Phase == PhaseComputing {
				writeSSE(w, "computing", []byte("{}"))
			}
		case out := <-done:
			// The phase feed is best-effort, but ordering isn't: drain
			// whatever it already holds — buffered status events and, after
			// a slow-consumer disconnect, the channel closure — before the
			// terminal event. Otherwise this select could race a
			// just-closed channel against a just-completed result and
			// swallow the "lagged" notice the client is owed.
			for events != nil {
				select {
				case ev, ok := <-events:
					if !ok {
						writeSSE(w, "lagged", []byte("{}"))
						events = nil
					} else if ev.Fingerprint == fp && ev.Phase == PhaseComputing {
						writeSSE(w, "computing", []byte("{}"))
					}
					continue
				default:
				}
				break
			}
			if out.err != nil {
				b, _ := json.Marshal(errorResponse{Error: out.err.Error()})
				writeSSE(w, "error", b)
				return
			}
			writeSSE(w, "result", out.blob)
			return
		case <-s.draining:
			// The daemon is shutting down: end the stream explicitly so the
			// client can distinguish "server going away, resubscribe
			// elsewhere" from a dropped connection, then release the handler
			// so http.Server.Shutdown can complete.
			writeSSE(w, "shutdown", []byte("{}"))
			return
		case <-r.Context().Done():
			return
		}
	}
}

// studyIndexResponse is the GET /v1/studies body: one page of the store's
// deterministic (lexicographic) fingerprint listing. NextCursor is empty on
// the last page; otherwise pass it back as ?cursor= to resume.
type studyIndexResponse struct {
	Studies    []IndexEntry `json:"studies"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// Index pagination bounds.
const (
	defaultIndexLimit = 100
	maxIndexLimit     = 1000
)

// handleStudyIndex serves GET /v1/studies?limit=N&cursor=fp: a
// deterministically ordered, cursor-paginated enumeration of every
// fingerprint the store knows, so an operator can walk a store without
// knowing any fingerprint up front. The cursor is exclusive — pages resume
// strictly after it — so a listing never duplicates entries even when
// studies land between pages. Store.IndexPage does the work, at
// O(log n + limit) per page.
func (s *Server) handleStudyIndex(w http.ResponseWriter, r *http.Request) {
	limit := defaultIndexLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("fleet: limit %q is not a positive integer", raw)})
			return
		}
		if n > maxIndexLimit {
			n = maxIndexLimit
		}
		limit = n
	}
	page, next := s.sched.Store().IndexPage(r.URL.Query().Get("cursor"), limit)
	writeJSON(w, http.StatusOK, studyIndexResponse{Studies: page, NextCursor: next})
}
