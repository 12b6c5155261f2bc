package fleet

// Fuzz harness for the suite-request wire decoder (the POST /v1/suites
// body): malformed bodies must return errors — surfaced as HTTP 400 by the
// server — never panic, and every accepted request's specs must resolve
// through StudySpec.Config without panicking. Run continuously with:
//
//	go test -run '^$' -fuzz '^FuzzDecodeSuiteRequest$' -fuzztime 30s ./internal/fleet

import (
	"bytes"
	"testing"
)

func FuzzDecodeSuiteRequest(f *testing.F) {
	seeds := []string{
		suiteBody,
		`{"studies":[{"workload":"fig1","comparator":"mannwhitney"}]}`,
		`{"studies":[{"program":{"name":"p","tasks":[{"name":"L1","kernel":"gemm","size":64,"iters":5}]},
			"platform":{"edge":{"preset":"raspberry-pi-4"},"link":{"preset":"wifi"}},"measurements":5,"reps":8}]}`,
		suitePlatformsBody,
		`{"platforms":{"x":{"name":"y"}},"studies":[{"workload":"tableI","platform":{"name":"x"}}]}`,
		`{"studies":[{"workload":"tableI","platform":{"name":"ghost"}}]}`,
		`{"studies":[]}`,
		`{"studies":[{"workload":"tableI","bogus":1}]}`,
		`{"studies":[{"workload":"tableI","reps":-3}]}`,
		`{`,
		`null`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSuiteRequest(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, and it did
		}
		// Accepted requests resolve (or fail cleanly) without panicking;
		// resolution errors are legal — the scheduler surfaces them as 400s.
		for i := range req.Studies {
			if _, err := req.Studies[i].Config(); err != nil {
				return
			}
		}
	})
}
