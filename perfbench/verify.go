package main

// Correctness checks run after the timed phase, and the warm-read
// expectations encoded before it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"relperf"
	"relperf/internal/fleet"
)

// roundTrip checks that blob decodes as a result document and re-encodes
// to the identical bytes.
func roundTrip(blob []byte) error {
	res, err := relperf.UnmarshalResultWire(blob)
	if err != nil {
		return err
	}
	again, err := res.MarshalWire()
	if err != nil {
		return err
	}
	if !bytes.Equal(again, blob) {
		return fmt.Errorf("result does not re-encode to the bytes served (%d vs %d bytes)", len(again), len(blob))
	}
	return nil
}

// failOp marks an executed op failed after the fact (a byte mismatch found
// after timing); it then counts beyond every percentile.
func failOp(r *opResult, err error) {
	if r.ok {
		r.ok, r.lat, r.err = false, opTimeout, err.Error()
	}
}

// checkBlobs round-trips every result body the clients received.
func checkBlobs(results []opResult, ops []op) {
	for i := range results {
		r := &results[i]
		for k, b := range r.blobs {
			if err := roundTrip(b); err != nil {
				failOp(r, fmt.Errorf("%s: %w", ops[r.op].studies[k].FP, err))
				break
			}
		}
	}
}

// recomputeSample recomputes a seeded sample of the studies the daemon
// served, in-process, and requires the daemon's bytes exactly. It returns
// how many studies it recomputed.
func recomputeSample(results []opResult, ops []op, seed uint64, want int) (int, error) {
	rng := newRNG(seed, streamSample)
	var okIdx []int
	for i, r := range results {
		if r.ok {
			okIdx = append(okIdx, i)
		}
	}
	rng.Shuffle(len(okIdx), func(i, j int) { okIdx[i], okIdx[j] = okIdx[j], okIdx[i] })
	n := 0
	for _, i := range okIdx {
		if n >= want {
			break
		}
		r := &results[i]
		o := &ops[r.op]
		for k, st := range o.studies {
			sp, err := relperf.ParseStudySpec(st.Spec)
			if err != nil {
				return n, err
			}
			blob, err := runStudy(sp, seed)
			if err != nil {
				return n, err
			}
			n++
			if !bytes.Equal(blob, r.blobs[k]) {
				failOp(r, fmt.Errorf("%s: daemon bytes differ from an in-process recompute", st.FP))
				break
			}
		}
	}
	return n, nil
}

// indexPage mirrors the GET /v1/studies body.
type indexPage struct {
	Studies    []fleet.IndexEntry `json:"studies"`
	NextCursor string             `json:"next_cursor,omitempty"`
}

const indexLimit = 100

// encodeJSON encodes v as the daemon's handlers do (json.Encoder, trailing
// newline).
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// buildWarmExpect encodes the exact bytes each warm-read op must receive.
func buildWarmExpect(fx *fixture, ops []op, seed uint64) (*warmExpect, error) {
	n := len(fx.studies)
	we := &warmExpect{
		studyPath: make([]string, n), summaryPath: make([]string, n), etag: make([]string, n),
		study: make([][]byte, n), summary: make([][]byte, n),
	}
	for i, st := range fx.studies {
		we.studyPath[i] = "/v1/studies/" + st.FP
		we.summaryPath[i] = we.studyPath[i] + "/summary"
		we.etag[i] = `"` + st.FP + `"`
		we.study[i] = append(bytes.Clone(st.Result), '\n')
	}
	for _, o := range ops {
		if o.kind != opSummary || we.summary[o.fx] != nil {
			continue
		}
		st := fx.studies[o.fx]
		sum, err := fleet.SummarizeResult(st.FP, st.Result)
		if err != nil {
			return nil, err
		}
		if we.summary[o.fx], err = encodeJSON(sum); err != nil {
			return nil, err
		}
	}
	for _, pos := range warmCursorKeys(seed, n) {
		start := pos + 1
		end := min(start+indexLimit, n)
		page := indexPage{Studies: []fleet.IndexEntry{}}
		for _, fp := range fx.sorted[start:end] {
			page.Studies = append(page.Studies, fleet.IndexEntry{Fingerprint: fp, Cached: true, Spec: true})
		}
		if end < n {
			page.NextCursor = fx.sorted[end-1]
		}
		b, err := encodeJSON(page)
		if err != nil {
			return nil, err
		}
		we.indexPath = append(we.indexPath, fmt.Sprintf("/v1/studies?limit=%d&cursor=%s", indexLimit, fx.sorted[pos]))
		we.index = append(we.index, b)
	}
	return we, nil
}

// routeCheck compares the client's view of one route with the daemon's
// http_request_seconds histogram over the same timed phase (times in ms).
type routeCheck struct {
	route                      string
	requests                   int
	serverRequests             float64
	clientP50, clientP99       float64
	serverP50, serverP99       float64
	serverP50Low, serverP99Low float64
	problem                    string
}

// checkRoutes asserts, route by route, that the client saw every request
// the server counted and that the client's latency distribution lies at or
// above the server's: at every bucket bound, no more client requests than
// server requests finished within it. That implies client p50/p99 are at
// least the lower edge of the server's p50/p99 bucket.
func checkRoutes(reqs []reqSample, d series) []routeCheck {
	var out []routeCheck
	for r := 0; r < nRoutes; r++ {
		var lat []float64
		for _, q := range reqs {
			if q.route == r && q.status != 0 {
				lat = append(lat, secs(q.d))
			}
		}
		label := fmt.Sprintf("route=%q", routeNames[r])
		bs := d.buckets("http_request_seconds", label)
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		c := routeCheck{route: routeNames[r], requests: len(lat)}
		if len(bs) > 0 {
			c.serverRequests = bs[len(bs)-1].count
		}
		c.clientP50, c.clientP99 = 1000*quantile(lat, 0.5), 1000*quantile(lat, 0.99)
		est, low := bucketQuantile(bs, 0.5)
		c.serverP50, c.serverP50Low = 1000*est, 1000*low
		est, low = bucketQuantile(bs, 0.99)
		c.serverP99, c.serverP99Low = 1000*est, 1000*low
		var problems []string
		if c.serverRequests != float64(len(lat)) {
			problems = append(problems, fmt.Sprintf("server counted %v requests, client sent %d", c.serverRequests, len(lat)))
		}
		for _, b := range bs {
			if math.IsInf(b.le, 1) {
				continue
			}
			within := sort.SearchFloat64s(lat, math.Nextafter(b.le, math.Inf(1)))
			if float64(within) > b.count {
				problems = append(problems, fmt.Sprintf("%d client requests finished within %gs, server saw only %v", within, b.le, b.count))
			}
		}
		c.problem = strings.Join(problems, "; ")
		out = append(out, c)
	}
	return out
}

// classCounts cross-checks http_responses_total by status class against
// the statuses the clients received.
func classCounts(reqs []reqSample, d series) (server, client map[string]float64) {
	server, client = map[string]float64{}, map[string]float64{}
	for r := 0; r < nRoutes; r++ {
		for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
			server[class] += d[fmt.Sprintf("http_responses_total{class=%q,route=%q}", class, routeNames[r])]
		}
	}
	for _, q := range reqs {
		if q.status == 0 {
			client["transport_error"]++
			continue
		}
		client[fmt.Sprintf("%dxx", q.status/100)]++
	}
	return server, client
}
