// Package measure collects and manages the execution-time distributions the
// methodology operates on: N repeated measurements per algorithm, with
// optional warmup, plus CSV/JSON persistence so measured distributions can be
// archived and re-clustered later (the paper repeats the clustering over the
// same measurements, never re-executing the algorithms — footnote 5).
package measure

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"relperf/internal/stats"
)

// Sample is one algorithm's set of N measurements (seconds).
type Sample struct {
	// Name identifies the algorithm ("algDDA").
	Name string `json:"name"`
	// Seconds holds the raw measurements in collection order.
	Seconds []float64 `json:"seconds"`
}

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.Seconds) }

// Summary returns descriptive statistics of the sample.
func (s *Sample) Summary() stats.Summary { return stats.Summarize(s.Seconds) }

// Validate rejects unusable samples.
func (s *Sample) Validate() error {
	if s.Name == "" {
		return errors.New("measure: sample without name")
	}
	if len(s.Seconds) == 0 {
		return fmt.Errorf("measure: sample %q is empty", s.Name)
	}
	for i, v := range s.Seconds {
		// !(v > 0) also rejects NaN, which v <= 0 would let through.
		if !(v > 0) {
			return fmt.Errorf("measure: sample %q measurement %d is non-positive (%v)", s.Name, i, v)
		}
	}
	return nil
}

// SampleSet is the full measurement campaign over a set A of equivalent
// algorithms.
type SampleSet struct {
	// Workload names the program measured.
	Workload string `json:"workload"`
	// Samples holds one Sample per algorithm, in the order they are
	// indexed by the clustering layer.
	Samples []Sample `json:"samples"`

	// sorted caches the index-aligned sorted views built by Sorted, so the
	// comparison layers sort each sample once per campaign rather than once
	// per comparison. Guarded by sortedMu and re-validated per call against
	// sortedProbes, so samples that were appended to or rewritten since the
	// last call are re-sorted instead of served stale.
	sortedMu     sync.Mutex
	sorted       []*stats.SortedSample
	sortedProbes []sampleProbe
}

// sampleProbe captures the cheap mutation signals of one sample at the
// time its sorted view was built: the length and the boundary values. An
// in-place rewrite that preserves all three goes undetected — full safety
// is the documented immutability contract — but every append and the
// common rewrite patterns invalidate the view.
type sampleProbe struct {
	n           int
	first, last float64
}

func probeOf(xs []float64) sampleProbe {
	p := sampleProbe{n: len(xs)}
	if p.n > 0 {
		p.first, p.last = xs[0], xs[p.n-1]
	}
	return p
}

// Names returns the algorithm names in index order.
func (ss *SampleSet) Names() []string {
	out := make([]string, len(ss.Samples))
	for i := range ss.Samples {
		out[i] = ss.Samples[i].Name
	}
	return out
}

// Data returns the measurement slices in index order (aliases, not copies).
func (ss *SampleSet) Data() [][]float64 {
	out := make([][]float64, len(ss.Samples))
	for i := range ss.Samples {
		out[i] = ss.Samples[i].Seconds
	}
	return out
}

// ByName returns the sample with the given name, or nil.
func (ss *SampleSet) ByName(name string) *Sample {
	for i := range ss.Samples {
		if ss.Samples[i].Name == name {
			return &ss.Samples[i]
		}
	}
	return nil
}

// Validate checks the set and every sample, and that names are unique.
func (ss *SampleSet) Validate() error {
	if len(ss.Samples) == 0 {
		return errors.New("measure: empty sample set")
	}
	seen := map[string]bool{}
	for i := range ss.Samples {
		if err := ss.Samples[i].Validate(); err != nil {
			return err
		}
		if seen[ss.Samples[i].Name] {
			return fmt.Errorf("measure: duplicate sample name %q", ss.Samples[i].Name)
		}
		seen[ss.Samples[i].Name] = true
	}
	return nil
}

// Sorted returns index-aligned sorted views of every sample, built once
// per campaign and cached; the comparison and clustering layers read
// quantiles and order statistics off these views instead of re-sorting a
// sample on every comparison. Safe for concurrent use. Each call
// re-validates the cache against the samples' lengths and boundary values,
// so a set that grew or was visibly rewritten between calls (a second
// measurement campaign, say) re-sorts the changed samples; a rewrite that
// preserves length and boundaries is undetectable — samples are assumed
// immutable between calls otherwise (the methodology's footnote-5
// contract).
func (ss *SampleSet) Sorted() []*stats.SortedSample {
	ss.sortedMu.Lock()
	defer ss.sortedMu.Unlock()
	if len(ss.sorted) != len(ss.Samples) {
		ss.sorted = make([]*stats.SortedSample, len(ss.Samples))
		ss.sortedProbes = make([]sampleProbe, len(ss.Samples))
	}
	for i := range ss.Samples {
		probe := probeOf(ss.Samples[i].Seconds)
		if ss.sorted[i] == nil || ss.sortedProbes[i] != probe {
			ss.sorted[i] = stats.NewSortedSample(ss.Samples[i].Seconds)
			ss.sortedProbes[i] = probe
		}
	}
	// Return a copy: revalidation on a later call writes into ss.sorted in
	// place, and earlier callers' slices must not observe those writes.
	return append([]*stats.SortedSample(nil), ss.sorted...)
}

// Runner produces one measurement per call; the collection harness wraps
// simulators, real kernel executions, or anything else that yields seconds.
type Runner func() (float64, error)

// Options configures a measurement collection.
type Options struct {
	// N is the number of retained measurements (the paper uses 30 and 500).
	N int
	// Warmup measurements are taken and discarded first (cache and JIT
	// warmup in real systems; pure burn-in for simulators).
	Warmup int
}

// Collect gathers N measurements (after Warmup discarded ones) from run.
func Collect(name string, run Runner, opts Options) (Sample, error) {
	if opts.N <= 0 {
		return Sample{}, fmt.Errorf("measure: N must be positive, got %d", opts.N)
	}
	return CollectInto(name, make([]float64, opts.N), run, opts.Warmup)
}

// CollectInto is the allocation-free core of Collect: after warmup discarded
// runs it fills dst with len(dst) measurements and returns a Sample aliasing
// dst, so repeated campaigns can reuse one buffer per algorithm across
// rounds instead of allocating through Collect each time.
func CollectInto(name string, dst []float64, run Runner, warmup int) (Sample, error) {
	if len(dst) == 0 {
		return Sample{}, errors.New("measure: empty destination buffer")
	}
	if run == nil {
		return Sample{}, errors.New("measure: nil runner")
	}
	for i := 0; i < warmup; i++ {
		if _, err := run(); err != nil {
			return Sample{}, fmt.Errorf("measure: warmup %d of %s: %w", i, name, err)
		}
	}
	for i := range dst {
		v, err := run()
		if err != nil {
			return Sample{}, fmt.Errorf("measure: measurement %d of %s: %w", i, name, err)
		}
		dst[i] = v
	}
	return Sample{Name: name, Seconds: dst}, nil
}

// Time measures the wall-clock duration of f in seconds — the primitive for
// measuring real (host-executed) kernels.
func Time(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// WriteCSV serializes the set as rows of (algorithm, run, seconds).
func (ss *SampleSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"algorithm", "run", "seconds"}); err != nil {
		return err
	}
	for _, s := range ss.Samples {
		for i, v := range s.Seconds {
			rec := []string{s.Name, strconv.Itoa(i), strconv.FormatFloat(v, 'g', 17, 64)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the format written by WriteCSV. Rows must be grouped or
// interleaved arbitrarily; order within an algorithm follows the run index.
func ReadCSV(r io.Reader, workload string) (*SampleSet, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("measure: reading CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, errors.New("measure: empty CSV")
	}
	start := 0
	if records[0][0] == "algorithm" {
		start = 1
	}
	type entry struct {
		run int
		v   float64
	}
	byName := map[string][]entry{}
	var order []string
	for _, rec := range records[start:] {
		if len(rec) != 3 {
			return nil, fmt.Errorf("measure: malformed CSV row %v", rec)
		}
		run, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("measure: bad run index %q: %w", rec[1], err)
		}
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("measure: bad measurement %q: %w", rec[2], err)
		}
		if _, ok := byName[rec[0]]; !ok {
			order = append(order, rec[0])
		}
		byName[rec[0]] = append(byName[rec[0]], entry{run, v})
	}
	ss := &SampleSet{Workload: workload}
	for _, name := range order {
		es := byName[name]
		sort.Slice(es, func(i, j int) bool { return es[i].run < es[j].run })
		s := Sample{Name: name, Seconds: make([]float64, len(es))}
		for i, e := range es {
			s.Seconds[i] = e.v
		}
		ss.Samples = append(ss.Samples, s)
	}
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	return ss, nil
}

// WriteJSON serializes the set as indented JSON.
func (ss *SampleSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ss)
}
