package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"relperf"
)

// StudySpec is the JSON wire form of a study configuration. The schema is
// owned by the relperf package (see relperf.StudySpec): a spec either names
// a built-in workload or carries a declarative program/platform description,
// so clients can open arbitrary scenarios without a binary roll. The alias
// keeps the fleet wire surface (SuiteRequest, snapshots) and the library
// schema one type.
type StudySpec = relperf.StudySpec

// SuiteRequest is the POST /v1/suites body. Platforms optionally defines
// named custom platforms once at the suite level; studies reference one
// with a platform of the form {"name": "x"}. References are substituted
// into the studies at decode time (relperf.ExpandPlatformRefs), so by the
// time specs are validated, fingerprinted or retained for snapshots they
// are fully self-contained.
type SuiteRequest struct {
	Studies   []StudySpec                      `json:"studies"`
	Platforms map[string]*relperf.PlatformSpec `json:"platforms,omitempty"`
}

// DecodeSuiteRequest parses a request body, rejecting unknown fields so
// spec typos fail loudly instead of silently running the default study.
// Every spec is validated; resolution happens in Scheduler.SubmitSpecs.
func DecodeSuiteRequest(rd io.Reader) (*SuiteRequest, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var req SuiteRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("fleet: decoding suite request: %w", err)
	}
	// A second document after the first would be silently discarded by
	// Decode — reject it, the caller almost certainly concatenated bodies.
	// A read error here (size cap, transport) is its own failure, not
	// trailing data.
	if _, err := dec.Token(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("fleet: reading suite request: %w", err)
		}
		return nil, errors.New("fleet: trailing data after suite request")
	}
	if len(req.Studies) == 0 {
		return nil, errors.New("fleet: suite request without studies")
	}
	// Named-platform references substitute before validation: afterwards
	// every study spec stands alone, which snapshots and grid dispatch
	// depend on.
	if err := relperf.ExpandPlatformRefs(req.Studies, req.Platforms); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	for i := range req.Studies {
		if err := req.Studies[i].Validate(); err != nil {
			return nil, fmt.Errorf("fleet: study %d: %w", i, err)
		}
	}
	return &req, nil
}
