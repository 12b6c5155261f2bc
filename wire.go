package relperf

// Wire encoding of Results: the canonical machine-readable JSON document
// (schema report.ResultSchema) that the relperfd daemon serves and the
// fleet result store persists, written and read by internal/report's
// hand-written codec. Equal Results encode to byte-identical documents,
// and decoding accepts only a document that is the encoding of its own
// result (report.Canonical), so cached, restored and remote results are
// indistinguishable from freshly computed ones.

import (
	"fmt"
	"io"

	"relperf/internal/report"
	"relperf/internal/stats"
)

// MarshalWire returns the canonical compact JSON encoding of the result.
// Sketch-mode results carry mode "sketch", the sketches and the mode's
// rank-error bound; exact results encode exactly as before sketch mode
// existed.
func (r *Result) MarshalWire() ([]byte, error) {
	doc := &report.ResultJSON{
		Schema:   report.ResultSchema,
		Names:    r.Names,
		Samples:  r.Samples,
		Clusters: r.Clusters,
		Final:    r.Final,
		Profiles: r.Profiles,
	}
	if r.Sketches != nil {
		doc.Mode = report.ResultModeSketch
		doc.Sketches = r.Sketches
		doc.ErrorBound = stats.SketchEpsilon(r.Sketches.K())
	}
	return report.MarshalResult(doc)
}

// WriteJSON writes the canonical encoding followed by a newline.
func (r *Result) WriteJSON(w io.Writer) error {
	b, err := r.MarshalWire()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// UnmarshalResultWire parses a document produced by MarshalWire (WriteJSON
// without its newline) and refuses any other spelling of the result.
func UnmarshalResultWire(b []byte) (*Result, error) {
	doc, err := report.Canonical(b)
	if err != nil {
		return nil, err
	}
	return &Result{
		Names:    doc.Names,
		Samples:  doc.Samples,
		Sketches: doc.Sketches,
		Clusters: doc.Clusters,
		Final:    doc.Final,
		Profiles: doc.Profiles,
	}, nil
}

// GridTask is the envelope of one study sharded to a remote worker: the
// fingerprint addresses it, the derived seed (StudySeed of the suite seed
// and the fingerprint) pins its randomness, and the declarative spec is
// everything a worker needs to reproduce it. Its wire form is the
// relperf/grid-task/v1 schema of internal/report.
type GridTask struct {
	// Fingerprint is the study's canonical config fingerprint.
	Fingerprint string
	// Seed is the derived study seed.
	Seed uint64
	// Spec is the study's declarative wire spec (StudySpec JSON).
	Spec []byte
}

// MarshalWire returns the canonical compact relperf/grid-task/v1 encoding.
func (t *GridTask) MarshalWire() ([]byte, error) {
	return report.MarshalTask(&report.TaskJSON{
		Schema:      report.TaskSchema,
		Fingerprint: t.Fingerprint,
		Seed:        t.Seed,
		Spec:        t.Spec,
	})
}

// VerifyGridResult checks a worker's reply against the task that produced
// it: the blob must be a canonical relperf/result/v1 document
// (report.Canonical). That check is what lets a coordinator merge remote
// results into its store without trusting the worker — a result that is
// valid but non-canonical would silently break the byte-identity contract
// between grid and single-node runs.
func VerifyGridResult(task GridTask, blob []byte) (*Result, error) {
	res, err := UnmarshalResultWire(blob)
	if err != nil {
		return nil, fmt.Errorf("relperf: grid result for %s: %w", task.Fingerprint, err)
	}
	return res, nil
}
