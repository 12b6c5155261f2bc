package report

import (
	"bytes"
	"testing"

	"relperf/internal/core"
	"relperf/internal/decision"
	"relperf/internal/measure"
)

func sampleResultJSON() *ResultJSON {
	return &ResultJSON{
		Schema: ResultSchema,
		Names:  []string{"algDD", "algDA"},
		Samples: &measure.SampleSet{
			Workload: "w",
			Samples: []measure.Sample{
				{Name: "algDD", Seconds: []float64{1.0000000000000002, 1.1, 0.9}},
				{Name: "algDA", Seconds: []float64{2.0, 2.1, 1.9}},
			},
		},
		Clusters: &core.ClusterResult{
			P: 2, Reps: 10, K: 2, MeanK: 2,
			Scores: [][]float64{{1, 0}, {0, 1}},
			Clusters: [][]core.Membership{
				{{Alg: 0, Score: 1}},
				{{Alg: 1, Score: 1}},
			},
		},
		Final: &core.FinalAssignment{
			Rank: []int{1, 2}, Score: []float64{1, 1}, K: 2,
			Classes: [][]core.Membership{
				{{Alg: 0, Score: 1}},
				{{Alg: 1, Score: 1}},
			},
		},
		Profiles: []decision.AlgorithmProfile{
			{Name: "DD", Rank: 1, Score: 1, MeanSeconds: 1.0 / 3, EdgeFlops: 7},
			{Name: "DA", Rank: 2, Score: 1, MeanSeconds: 2, AccelFlops: 9, AccelJoules: 0.1},
		},
	}
}

// TestResultJSONRoundTrip: decode(encode(r)) re-encodes to byte-identical
// output — the property the fleet store's snapshot persistence relies on.
func TestResultJSONRoundTrip(t *testing.T) {
	r := sampleResultJSON()
	blob, err := MarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := MarshalResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("re-encoding differs:\n%s\nvs\n%s", blob, blob2)
	}
	if back.Profiles[0].EdgeFlops != 7 || back.Samples.Samples[0].Seconds[0] != 1.0000000000000002 {
		t.Fatalf("lossy round trip: %+v", back)
	}
}

func TestResultJSONValidation(t *testing.T) {
	r := sampleResultJSON()
	r.Schema = "bogus/v9"
	if _, err := MarshalResult(r); err == nil {
		t.Fatal("wrong schema accepted")
	}
	r = sampleResultJSON()
	r.Clusters = nil
	if _, err := MarshalResult(r); err == nil {
		t.Fatal("missing clusters accepted")
	}
	if _, err := UnmarshalResult([]byte(`{"schema":"relperf/result/v1","unknown_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	r = sampleResultJSON()
	r.Names = r.Names[:1]
	if _, err := MarshalResult(r); err == nil {
		t.Fatal("name/sample mismatch accepted")
	}
}
