package relperf

// Tests of the relperf/grid-task/v1 worker task envelope and the
// coordinator-side result verification it enables.

import (
	"bytes"
	"strings"
	"testing"

	"relperf/internal/report"
)

func TestGridTaskWireRoundTrip(t *testing.T) {
	spec := []byte(`{"workload":"tableI","loop_n":2,"measurements":6,"reps":10}`)
	fp, err := Fingerprint(mustSpecConfig(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := StudySeed(7, fp)
	if err != nil {
		t.Fatal(err)
	}
	task := GridTask{Fingerprint: fp, Seed: seed, Spec: spec}
	b, err := task.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"schema":"relperf/grid-task/v1"`)) {
		t.Fatalf("envelope missing schema: %s", b)
	}
	doc, err := report.UnmarshalTask(b)
	if err != nil {
		t.Fatal(err)
	}
	got := GridTask{Fingerprint: doc.Fingerprint, Seed: doc.Seed, Spec: doc.Spec}
	if got.Fingerprint != fp || got.Seed != seed || !bytes.Equal(got.Spec, spec) {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	// Marshal is canonical: a second marshal of the decoded form is
	// byte-identical.
	again, err := got.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) {
		t.Fatal("envelope encoding is not a fixed point")
	}
}

func TestUnmarshalGridTaskRejects(t *testing.T) {
	for _, bad := range []string{
		`{}`,
		`{"schema":"relperf/grid-task/v2","fingerprint":"ab"}`,
		`{"schema":"relperf/grid-task/v1"}`,
		`{"schema":"relperf/grid-task/v1","fingerprint":"ab","bogus":1}`,
		`{broken`,
	} {
		if _, err := report.UnmarshalTask([]byte(bad)); err == nil {
			t.Errorf("envelope %s decoded without error", bad)
		}
	}
}

// TestVerifyGridResult: a genuine result verifies; tampered, non-canonical
// or garbage replies are rejected before they could enter a store.
func TestVerifyGridResult(t *testing.T) {
	spec := []byte(`{"workload":"tableI","loop_n":2,"measurements":5,"reps":8}`)
	cfg := mustSpecConfig(t, spec)
	study, fp, err := NewKeyedStudy(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	seed, _ := StudySeed(7, fp)
	task := GridTask{Fingerprint: fp, Seed: seed, Spec: spec}

	if _, err := VerifyGridResult(task, blob); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	if _, err := VerifyGridResult(task, []byte(`{"schema":"nope"}`)); err == nil {
		t.Fatal("garbage reply verified")
	}
	// Valid JSON, same document, different byte sequence (extra
	// whitespace): semantically equal but non-canonical must be rejected.
	spaced := bytes.Replace(blob, []byte(`","`), []byte(`", "`), 1)
	if bytes.Equal(spaced, blob) {
		t.Fatal("test setup: no substitution happened")
	}
	if _, err := VerifyGridResult(task, spaced); err == nil {
		t.Fatal("non-canonical reply verified")
	} else if !strings.Contains(err.Error(), "not canonical") {
		t.Fatalf("err = %v", err)
	}
}

// mustSpecConfig resolves a wire spec into a StudyConfig.
func mustSpecConfig(t *testing.T, spec []byte) StudyConfig {
	t.Helper()
	sp, err := ParseStudySpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
