package measure

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"relperf/internal/xrand"
)

func testSet() *SampleSet {
	return &SampleSet{
		Workload: "w",
		Samples: []Sample{
			{Name: "algA", Seconds: []float64{0.1, 0.2, 0.15}},
			{Name: "algB", Seconds: []float64{0.3, 0.35}},
		},
	}
}

func TestSampleValidate(t *testing.T) {
	good := Sample{Name: "a", Seconds: []float64{1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Sample{
		{Seconds: []float64{1}},
		{Name: "a"},
		{Name: "a", Seconds: []float64{0}},
		{Name: "a", Seconds: []float64{1, -2}},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Errorf("bad sample %d accepted", i)
		}
	}
}

func TestSampleSummary(t *testing.T) {
	s := Sample{Name: "a", Seconds: []float64{1, 2, 3}}
	if s.N() != 3 {
		t.Fatal("N wrong")
	}
	if sum := s.Summary(); sum.Median != 2 || sum.Min != 1 || sum.Max != 3 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestSampleSetAccessors(t *testing.T) {
	ss := testSet()
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	names := ss.Names()
	if names[0] != "algA" || names[1] != "algB" {
		t.Fatalf("Names = %v", names)
	}
	data := ss.Data()
	if len(data) != 2 || len(data[0]) != 3 {
		t.Fatal("Data wrong")
	}
	if ss.ByName("algB") == nil || ss.ByName("missing") != nil {
		t.Fatal("ByName wrong")
	}
}

func TestSampleSetSortedViews(t *testing.T) {
	ss := testSet()
	sorted := ss.Sorted()
	if len(sorted) != len(ss.Samples) {
		t.Fatalf("Sorted returned %d views for %d samples", len(sorted), len(ss.Samples))
	}
	for i, v := range sorted {
		if v.N() != len(ss.Samples[i].Seconds) {
			t.Fatalf("view %d has N=%d", i, v.N())
		}
		vals := v.Values()
		for k := 1; k < len(vals); k++ {
			if vals[k-1] > vals[k] {
				t.Fatalf("view %d not sorted", i)
			}
		}
	}
	v0, v1 := sorted[0], sorted[1]
	// Unchanged samples reuse the cached views.
	again := ss.Sorted()
	if again[0] != v0 || again[1] != v1 {
		t.Fatal("unchanged samples were re-sorted")
	}
	// A sample that grows is re-sorted; its untouched sibling is not.
	ss.Samples[0].Seconds = append(ss.Samples[0].Seconds, 0.5)
	grown := ss.Sorted()
	if grown[0] == v0 {
		t.Fatal("grown sample served a stale view")
	}
	if grown[0].N() != len(ss.Samples[0].Seconds) {
		t.Fatal("re-sorted view has stale length")
	}
	if grown[1] != v1 {
		t.Fatal("untouched sample was re-sorted")
	}
	// A visible in-place rewrite (boundary value changes) is re-sorted.
	ss.Samples[1].Seconds[0] *= 10
	if rewritten := ss.Sorted(); rewritten[1] == v1 {
		t.Fatal("rewritten sample served a stale view")
	}
}

func TestSampleSetValidateDuplicates(t *testing.T) {
	ss := &SampleSet{Samples: []Sample{
		{Name: "x", Seconds: []float64{1}},
		{Name: "x", Seconds: []float64{2}},
	}}
	if ss.Validate() == nil {
		t.Fatal("duplicate names accepted")
	}
	if (&SampleSet{}).Validate() == nil {
		t.Fatal("empty set accepted")
	}
}

func TestCollect(t *testing.T) {
	rng := xrand.New(1)
	calls := 0
	run := func() (float64, error) {
		calls++
		return 1 + rng.Float64(), nil
	}
	s, err := Collect("x", run, Options{N: 10, Warmup: 3})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 13 {
		t.Fatalf("runner called %d times, want 13", calls)
	}
	if s.N() != 10 || s.Name != "x" {
		t.Fatalf("sample = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectErrors(t *testing.T) {
	ok := func() (float64, error) { return 1, nil }
	if _, err := Collect("x", ok, Options{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Collect("x", nil, Options{N: 1}); err == nil {
		t.Fatal("nil runner accepted")
	}
	boom := errors.New("boom")
	failing := func() (float64, error) { return 0, boom }
	if _, err := Collect("x", failing, Options{N: 1}); !errors.Is(err, boom) {
		t.Fatal("measurement error lost")
	}
	n := 0
	failWarmup := func() (float64, error) {
		n++
		if n == 1 {
			return 0, boom
		}
		return 1, nil
	}
	if _, err := Collect("x", failWarmup, Options{N: 1, Warmup: 1}); !errors.Is(err, boom) {
		t.Fatal("warmup error lost")
	}
}

func TestTime(t *testing.T) {
	s := Time(func() {
		x := 0
		for i := 0; i < 1000; i++ {
			x += i
		}
		_ = x
	})
	if s < 0 {
		t.Fatal("negative duration")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ss := testSet()
	var buf bytes.Buffer
	if err := ss.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "w")
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != "w" || len(back.Samples) != 2 {
		t.Fatalf("round trip = %+v", back)
	}
	for i := range ss.Samples {
		if back.Samples[i].Name != ss.Samples[i].Name {
			t.Fatal("names lost")
		}
		for j := range ss.Samples[i].Seconds {
			if back.Samples[i].Seconds[j] != ss.Samples[i].Seconds[j] {
				t.Fatal("values lost precision")
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "w"); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), "w"); err == nil {
		t.Fatal("malformed row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("alg,notanint,1.5\n"), "w"); err == nil {
		t.Fatal("bad run index accepted")
	}
	if _, err := ReadCSV(strings.NewReader("alg,0,notafloat\n"), "w"); err == nil {
		t.Fatal("bad value accepted")
	}
	// Non-positive measurement rejected by validation.
	if _, err := ReadCSV(strings.NewReader("alg,0,-1\n"), "w"); err == nil {
		t.Fatal("negative measurement accepted")
	}
}

func TestReadCSVInterleavedAndUnordered(t *testing.T) {
	csvText := "algorithm,run,seconds\nB,1,0.4\nA,0,0.1\nB,0,0.3\nA,1,0.2\n"
	ss, err := ReadCSV(strings.NewReader(csvText), "w")
	if err != nil {
		t.Fatal(err)
	}
	b := ss.ByName("B")
	if b.Seconds[0] != 0.3 || b.Seconds[1] != 0.4 {
		t.Fatalf("run order not restored: %v", b.Seconds)
	}
	// First-seen order preserved.
	if ss.Samples[0].Name != "B" {
		t.Fatal("appearance order lost")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ss := testSet()
	var buf bytes.Buffer
	if err := ss.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back := &SampleSet{}
	if err := json.NewDecoder(&buf).Decode(back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "w" || len(back.Samples) != 2 || back.Samples[1].Seconds[1] != 0.35 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestCollectIntoReusesBuffer(t *testing.T) {
	buf := make([]float64, 5)
	calls := 0
	run := func() (float64, error) { calls++; return float64(calls), nil }
	s, err := CollectInto("x", buf, run, 2)
	if err != nil {
		t.Fatal(err)
	}
	if &s.Seconds[0] != &buf[0] {
		t.Fatal("CollectInto did not alias the destination buffer")
	}
	// 2 warmup calls discarded: measurements are calls 3..7.
	for i, want := range []float64{3, 4, 5, 6, 7} {
		if s.Seconds[i] != want {
			t.Fatalf("Seconds = %v", s.Seconds)
		}
	}
	if _, err := CollectInto("x", nil, run, 0); err == nil {
		t.Fatal("empty buffer accepted")
	}
	if _, err := CollectInto("x", buf, nil, 0); err == nil {
		t.Fatal("nil runner accepted")
	}
}
