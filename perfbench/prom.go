package main

// Reading the daemon's own /v1/metrics exposition: scrape, diff two
// scrapes, and recover latency quantiles from histogram buckets the way
// obs.Histogram.Quantile does.

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// series maps an exposed series ("name{labels}") to its value.
type series map[string]float64

func scrape(hc *http.Client, base string) (series, error) {
	resp, err := hc.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics: %s", resp.Status)
	}
	out := series{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/v1/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after − before for every series of after.
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le    float64
	count float64
}

// buckets extracts the cumulative buckets of histogram name for the given
// label prefix (e.g. `route="GET /v1/studies"`), +Inf last.
func (s series) buckets(name, labels string) []bucket {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	var out []bucket
	for k, v := range s {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		out = append(out, bucket{le, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// addBuckets sums bucket lists with the same bounds.
func addBuckets(a, b []bucket) []bucket {
	if a == nil {
		return append([]bucket(nil), b...)
	}
	out := append([]bucket(nil), a...)
	for i := range out {
		if i < len(b) {
			out[i].count += b[i].count
		}
	}
	return out
}

// bucketQuantile estimates the q-quantile from cumulative buckets by
// linear interpolation inside the bucket holding the rank — the estimate
// obs.Histogram.Quantile serves. It also returns that bucket's lower edge,
// the smallest latency the estimate can stand for.
func bucketQuantile(bs []bucket, q float64) (est, lower float64) {
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].count
	rank := math.Max(1, math.Ceil(q*total))
	prevLe, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe, prevLe
			}
			n := b.count - prevCount
			if n == 0 {
				return b.le, prevLe
			}
			return prevLe + (rank-prevCount)/n*(b.le-prevLe), prevLe
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe, prevLe
}
