package main

// The closed-loop load phase: a fixed number of clients, each sending its
// next op only after the previous one completed, over pre-generated ops.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Routes the daemon labels http_request_seconds with, as the clients hit
// them.
const (
	routeSuites = iota
	routeStudy
	routeSummary
	routeIndex
	nRoutes
)

var routeNames = [nRoutes]string{
	"POST /v1/suites",
	"GET /v1/studies/{fingerprint}",
	"GET /v1/studies/{fingerprint}/summary",
	"GET /v1/studies",
}

// opTimeout bounds one request; a failed op is charged this latency, so it
// counts as beyond every reported percentile.
const opTimeout = 60 * time.Second

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// reqSample is one HTTP request as the client saw it; status 0 is a
// transport error.
type reqSample struct {
	route  int
	status int
	d      time.Duration
}

// opResult is one executed op.
type opResult struct {
	op    int           // index into the op list
	lat   time.Duration // first request byte to last result byte
	ok    bool
	blobs [][]byte // cold/ingest: each study's result bytes
	err   string
	done  time.Duration // completion, since the phase started
}

// warmExpect holds the exact response bytes every warm-read op must get,
// encoded before timing, and the request paths.
type warmExpect struct {
	studyPath, summaryPath []string // per fixture study
	etag                   []string
	study, summary         [][]byte // expected bodies; summary only where an op reads it
	indexPath              []string // per cursor slot
	index                  [][]byte
}

// loadPhase drives ops against base for a fixed time.
type loadPhase struct {
	base    string
	ops     []op
	wrap    bool // reuse ops once exhausted (reads only)
	warm    *warmExpect
	clients int
	trace   bool

	workers   []*worker
	elapsed   time.Duration
	exhausted atomic.Bool
}

type worker struct {
	hc      *http.Client
	lp      *loadPhase
	buf     bytes.Buffer
	results []opResult
	reqs    []reqSample
	tr      tracer
}

// run executes the phase for d and waits for every op in flight.
func (lp *loadPhase) run(ctx context.Context, d time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	origin := time.Now()
	deadline := origin.Add(d)
	for c := 0; c < lp.clients; c++ {
		w := &worker{hc: newHTTPClient(), lp: lp, tr: tracer{origin: origin, on: lp.trace, name: fmt.Sprintf("client%d", c)}}
		lp.workers = append(lp.workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.hc.CloseIdleConnections()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(lp.ops) {
					if !lp.wrap {
						lp.exhausted.Store(true)
						return
					}
					i %= len(lp.ops)
				}
				w.runOp(ctx, i)
			}
		}()
	}
	wg.Wait()
	lp.elapsed = time.Since(origin)
}

func (w *worker) runOp(ctx context.Context, i int) {
	o := &w.lp.ops[i]
	root := w.tr.start(opNames[o.kind], -1)
	start := time.Now()
	blobs, err := w.exec(ctx, o, root)
	r := opResult{op: i, lat: time.Since(start), ok: err == nil, blobs: blobs, done: time.Since(w.tr.origin)}
	w.tr.end(root)
	if err != nil {
		r.lat, r.err = opTimeout, err.Error()
	}
	w.results = append(w.results, r)
}

// opNames name each op kind's root span.
var opNames = [...]string{
	opCold: "op:cold", opSuite: "op:suite", opGet: "op:get",
	opSummary: "op:summary", opRevalidate: "op:revalidate", opIndex: "op:index",
}

func (w *worker) exec(ctx context.Context, o *op, root int32) ([][]byte, error) {
	base := w.lp.base
	switch o.kind {
	case opCold, opSuite:
		body, err := w.expect(ctx, root, routeSuites, http.MethodPost, base+"/v1/suites", o.body, "", http.StatusAccepted)
		if err != nil {
			return nil, err
		}
		for _, st := range o.studies {
			if !bytes.Contains(body, []byte(`"`+st.FP+`"`)) {
				return nil, fmt.Errorf("POST /v1/suites did not return fingerprint %s", st.FP)
			}
		}
		blobs := make([][]byte, len(o.studies))
		for k, st := range o.studies {
			path := base + "/v1/studies/" + st.FP
			if o.stream {
				path += "?wait=stream"
			}
			body, err := w.expect(ctx, root, routeStudy, http.MethodGet, path, nil, "", http.StatusOK)
			if err != nil {
				return nil, err
			}
			if o.stream {
				if body, err = sseResult(body); err != nil {
					return nil, fmt.Errorf("%s: %w", st.FP, err)
				}
			} else {
				body = bytes.TrimSuffix(body, []byte{'\n'})
			}
			blobs[k] = bytes.Clone(body)
		}
		return blobs, nil
	case opGet:
		we := w.lp.warm
		body, err := w.expect(ctx, root, routeStudy, http.MethodGet, base+we.studyPath[o.fx], nil, "", http.StatusOK)
		if err == nil && !bytes.Equal(body, we.study[o.fx]) {
			err = fmt.Errorf("GET %s: body differs from the stored result", we.studyPath[o.fx])
		}
		return nil, err
	case opSummary:
		we := w.lp.warm
		body, err := w.expect(ctx, root, routeSummary, http.MethodGet, base+we.summaryPath[o.fx], nil, "", http.StatusOK)
		if err == nil && !bytes.Equal(body, we.summary[o.fx]) {
			err = fmt.Errorf("GET %s: summary differs from fleet.SummarizeResult", we.summaryPath[o.fx])
		}
		return nil, err
	case opRevalidate:
		we := w.lp.warm
		body, err := w.expect(ctx, root, routeStudy, http.MethodGet, base+we.studyPath[o.fx], nil, we.etag[o.fx], http.StatusNotModified)
		if err == nil && len(body) != 0 {
			err = fmt.Errorf("304 for %s carried a body", we.studyPath[o.fx])
		}
		return nil, err
	case opIndex:
		we := w.lp.warm
		body, err := w.expect(ctx, root, routeIndex, http.MethodGet, base+we.indexPath[o.cursor], nil, "", http.StatusOK)
		if err == nil && !bytes.Equal(body, we.index[o.cursor]) {
			err = fmt.Errorf("GET %s: index page differs from the fixture's", we.indexPath[o.cursor])
		}
		return nil, err
	}
	return nil, fmt.Errorf("unknown op kind %d", o.kind)
}

// expect sends one request and reads the whole response; any status but
// want is an error. The returned body aliases the worker's buffer.
func (w *worker) expect(ctx context.Context, parent int32, route int, method, url string, body []byte, ifNoneMatch string, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	sid := w.tr.start(routeNames[route], parent)
	t0 := time.Now()
	resp, err := w.hc.Do(req)
	if err != nil {
		w.reqs = append(w.reqs, reqSample{route: route, d: time.Since(t0)})
		w.tr.end(sid)
		return nil, err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	w.reqs = append(w.reqs, reqSample{route: route, status: resp.StatusCode, d: time.Since(t0)})
	w.tr.end(sid)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s (want %d): %s", method, url, resp.Status, want, bytes.TrimSpace(w.buf.Bytes()))
	}
	return w.buf.Bytes(), nil
}

// sseResult extracts the data of the terminal result event from an SSE
// body.
func sseResult(body []byte) ([]byte, error) {
	const marker = "event: result\ndata: "
	i := bytes.LastIndex(body, []byte(marker))
	if i < 0 {
		return nil, errors.New("SSE stream ended without a result event")
	}
	data := body[i+len(marker):]
	j := bytes.Index(data, []byte("\n\n"))
	if j < 0 {
		return nil, errors.New("SSE result event is not terminated")
	}
	return data[:j], nil
}

// results merges every worker's op results and request samples.
func (lp *loadPhase) results() ([]opResult, []reqSample) {
	var rs []opResult
	var qs []reqSample
	for _, w := range lp.workers {
		rs = append(rs, w.results...)
		qs = append(qs, w.reqs...)
	}
	return rs, qs
}
