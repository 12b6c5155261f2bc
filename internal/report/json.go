package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"relperf/internal/core"
	"relperf/internal/decision"
	"relperf/internal/measure"
	"relperf/internal/stats"
)

// ResultSchema identifies the machine-readable study-result wire format.
// The fleet daemon serves it over HTTP and the result store persists it in
// snapshots; bump the version when the shape changes incompatibly.
const ResultSchema = "relperf/result/v1"

// ResultModeSketch marks a sketch-mode document; the empty mode is the
// exact path. The two modes are mutually exclusive on the wire: an exact
// document carries samples and no error bound, a sketch document carries
// sketches and the mode's documented rank-error bound.
const ResultModeSketch = "sketch"

// ResultJSON is the wire form of a complete study result: the measured
// distributions (exact samples or quantile sketches, depending on Mode),
// the repeated-clustering outcome, the final assignment and the decision
// profiles. Encoding is canonical — struct field order, no maps,
// shortest-round-trip floats, and the sketches' canonical binary encoding —
// so equal results always produce byte-identical documents, the property
// the fleet cache and the determinism contract rely on. Exact-mode
// documents are byte-identical to the pre-sketch schema: all sketch fields
// are empty and elided.
type ResultJSON struct {
	Schema string `json:"schema"`
	// Mode is "" (exact) or ResultModeSketch.
	Mode     string             `json:"mode,omitempty"`
	Names    []string           `json:"names"`
	Samples  *measure.SampleSet `json:"samples,omitempty"`
	Sketches *measure.SketchSet `json:"sketches,omitempty"`
	// ErrorBound is the sketch mode's rank-error bound,
	// stats.SketchEpsilon of the set's shared k; 0 (absent) in exact mode.
	ErrorBound float64                     `json:"error_bound,omitempty"`
	Clusters   *core.ClusterResult         `json:"clusters"`
	Final      *core.FinalAssignment       `json:"final"`
	Profiles   []decision.AlgorithmProfile `json:"profiles"`
}

// Validate rejects incomplete documents.
func (r *ResultJSON) Validate() error {
	if r.Schema != ResultSchema {
		return fmt.Errorf("report: result schema %q, want %q", r.Schema, ResultSchema)
	}
	if r.Clusters == nil || r.Final == nil {
		return errors.New("report: result JSON missing clusters or final assignment")
	}
	switch r.Mode {
	case "":
		if r.Sketches != nil || r.ErrorBound != 0 {
			return errors.New("report: exact-mode result carries sketch fields")
		}
		if r.Samples == nil {
			return errors.New("report: result JSON missing samples")
		}
		if err := r.Samples.Validate(); err != nil {
			return err
		}
		if len(r.Names) != len(r.Samples.Samples) {
			return fmt.Errorf("report: %d names for %d samples", len(r.Names), len(r.Samples.Samples))
		}
	case ResultModeSketch:
		if r.Samples != nil {
			return errors.New("report: sketch-mode result carries exact samples")
		}
		if r.Sketches == nil {
			return errors.New("report: sketch-mode result missing sketches")
		}
		if err := r.Sketches.Validate(); err != nil {
			return err
		}
		if len(r.Names) != len(r.Sketches.Sketches) {
			return fmt.Errorf("report: %d names for %d sketches", len(r.Names), len(r.Sketches.Sketches))
		}
		for i, name := range r.Sketches.Names() {
			if r.Names[i] != name {
				return fmt.Errorf("report: name %d is %q but its sketch is %q", i, r.Names[i], name)
			}
		}
		if want := stats.SketchEpsilon(r.Sketches.K()); r.ErrorBound != want {
			return fmt.Errorf("report: sketch-mode error bound %v, want %v for k=%d",
				r.ErrorBound, want, r.Sketches.K())
		}
	default:
		return fmt.Errorf("report: unknown result mode %q", r.Mode)
	}
	return nil
}

// MarshalResult returns the canonical compact encoding of the result.
func MarshalResult(r *ResultJSON) ([]byte, error) {
	if r.Schema == "" {
		r.Schema = ResultSchema
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// TaskSchema identifies the grid worker task envelope: the unit of work a
// coordinator hands to a remote relperfd worker. The envelope is
// self-contained — the fingerprint addresses the study, the derived seed
// pins its randomness, and the declarative spec is everything needed to
// reproduce it — so any worker that honors the schema computes the exact
// bytes the coordinator would have computed locally.
const TaskSchema = "relperf/grid-task/v1"

// TaskJSON is the wire form of one sharded study.
type TaskJSON struct {
	Schema string `json:"schema"`
	// Fingerprint is the study's canonical config fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Seed is the derived study seed, StudySeed(suiteSeed, Fingerprint).
	Seed uint64 `json:"seed"`
	// Spec is the study's declarative wire spec (relperf.StudySpec JSON).
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Validate rejects incomplete envelopes.
func (t *TaskJSON) Validate() error {
	if t.Schema != TaskSchema {
		return fmt.Errorf("report: task schema %q, want %q", t.Schema, TaskSchema)
	}
	if t.Fingerprint == "" {
		return errors.New("report: task envelope without a fingerprint")
	}
	return nil
}

// MarshalTask returns the canonical compact encoding of the envelope.
func MarshalTask(t *TaskJSON) ([]byte, error) {
	if t.Schema == "" {
		t.Schema = TaskSchema
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(t)
}

// UnmarshalTask parses and validates a task envelope.
func UnmarshalTask(b []byte) (*TaskJSON, error) {
	var t TaskJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("report: decoding task envelope: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// UnmarshalResult parses and validates a wire-format document.
func UnmarshalResult(b []byte) (*ResultJSON, error) {
	var r ResultJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("report: decoding result JSON: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
