package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"relperf/internal/report"
	"relperf/internal/stats"
)

// SummarySchema identifies the GET /v1/studies/{fp}/summary wire format:
// a per-algorithm quantile digest small enough for a dashboard poll,
// extracted from the stored result document without shipping it.
const SummarySchema = "relperf/summary/v1"

// Summary modes. Sketch-mode studies summarize their quantile sketches
// (and carry the mode's rank-error bound); exact-mode studies get a
// reduced summary computed from the stored samples.
const (
	SummaryModeExact  = "exact"
	SummaryModeSketch = "sketch"
)

// summaryQuantiles are the selected quantiles every summary reports.
var summaryQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// AlgorithmSummary is one algorithm's distribution digest.
type AlgorithmSummary struct {
	Name string `json:"name"`
	// N is the number of measurements behind the digest (exact count in
	// both modes — sketches track it exactly even though they retain only
	// a bounded subset).
	N    uint64  `json:"n"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// StudySummary is the GET /v1/studies/{fp}/summary body.
type StudySummary struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Mode        string `json:"mode"`
	Workload    string `json:"workload,omitempty"`
	// ErrorBound is the sketch mode's rank-error bound (each reported
	// quantile is within rank q ± ErrorBound of the ingested
	// distribution); 0 (absent) in exact mode, where quantiles are exact.
	ErrorBound float64            `json:"error_bound,omitempty"`
	Algorithms []AlgorithmSummary `json:"algorithms"`
}

// SummarizeResult reduces a stored canonical result document to its
// quantile summary; a document that is not canonical (report.Canonical)
// is refused. Sketch-mode documents answer straight from the sketches;
// exact-mode documents pay one sort per algorithm — a cold dashboard path,
// not the serving path.
func SummarizeResult(fp string, blob []byte) (*StudySummary, error) {
	res, err := report.Canonical(blob)
	if err != nil {
		return nil, fmt.Errorf("fleet: summarizing %s: %w", fp, err)
	}
	sum := &StudySummary{Schema: SummarySchema, Fingerprint: fp}
	switch {
	case res.Sketches != nil:
		sum.Mode = SummaryModeSketch
		sum.Workload = res.Sketches.Workload
		sum.ErrorBound = stats.SketchEpsilon(res.Sketches.K())
		for _, sk := range res.Sketches.Sketches {
			a := AlgorithmSummary{Name: sk.Name}
			if s := sk.Sketch; s != nil && s.N() > 0 {
				a.N = s.N()
				a.Min = s.MinValue()
				a.Max = s.MaxValue()
				a.Mean = s.Mean()
				a.P50 = s.Quantile(summaryQuantiles[0])
				a.P90 = s.Quantile(summaryQuantiles[1])
				a.P95 = s.Quantile(summaryQuantiles[2])
				a.P99 = s.Quantile(summaryQuantiles[3])
			}
			sum.Algorithms = append(sum.Algorithms, a)
		}
	case res.Samples != nil:
		sum.Mode = SummaryModeExact
		sum.Workload = res.Samples.Workload
		for _, sample := range res.Samples.Samples {
			a := AlgorithmSummary{Name: sample.Name}
			if n := len(sample.Seconds); n > 0 {
				sorted := append([]float64(nil), sample.Seconds...)
				sort.Float64s(sorted)
				a.N = uint64(n)
				a.Min = sorted[0]
				a.Max = sorted[n-1]
				a.Mean = stats.Mean(sample.Seconds)
				a.P50 = stats.QuantileSorted(sorted, summaryQuantiles[0])
				a.P90 = stats.QuantileSorted(sorted, summaryQuantiles[1])
				a.P95 = stats.QuantileSorted(sorted, summaryQuantiles[2])
				a.P99 = stats.QuantileSorted(sorted, summaryQuantiles[3])
			}
			sum.Algorithms = append(sum.Algorithms, a)
		}
	default:
		return nil, fmt.Errorf("fleet: result %s carries neither samples nor sketches", fp)
	}
	if sum.Algorithms == nil {
		sum.Algorithms = []AlgorithmSummary{}
	}
	return sum, nil
}

// encodeSummary is the complete GET /v1/studies/{fp}/summary body for a
// stored result: SummarizeResult encoded exactly as writeJSON would write
// it, trailing newline included, so Store.Summary can keep it and the
// handler can serve it verbatim.
func encodeSummary(fp string, blob []byte) ([]byte, error) {
	sum, err := SummarizeResult(fp, blob)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(sum); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
