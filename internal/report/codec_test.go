package report

// Differential tests of the hand-written result codec against
// encoding/json, the reference it must match byte for byte.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"relperf/internal/core"
	"relperf/internal/decision"
	"relperf/internal/measure"
	"relperf/internal/stats"
)

// codecFloats are the spellings encoding/json treats specially: both sides
// of the 1e-6 and 1e21 format switches, signed zero, subnormals and the
// extremes of the range.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1e300,
	5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
	math.MaxFloat64, -math.MaxFloat64, 0.05200008411740723, 123456789.125, 1e20,
}

// codecNames are strings every escaping rule of encoding/json touches:
// HTML characters, quotes and backslashes, control characters, the
// JavaScript line separators, invalid and truncated UTF-8.
var codecNames = []string{
	"algDDD", "", `a<b>& "x`, `back\slash/`, "line\u2028para\u2029", "\x00\x01\x1f\x7f",
	"\b\f\n\r\t", "bad\xff\xfeutf8", "cut\xe2\x80", "\xed\xa0\x80", "é日本語", "\ufffd", "emoji 🙂",
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.IntN(3) {
	case 0:
		return codecFloats[rng.IntN(len(codecFloats))]
	case 1:
		return rng.Float64() * math.Pow(10, float64(rng.IntN(40)-20))
	default:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

func randInt(rng *rand.Rand) int64 {
	switch rng.IntN(4) {
	case 0:
		return []int64{0, -1, 1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}[rng.IntN(7)]
	case 1:
		return int64(rng.Uint64())
	default:
		return rng.Int64N(1000)
	}
}

func randName(rng *rand.Rand, i int) string {
	if rng.IntN(3) == 0 {
		return codecNames[rng.IntN(len(codecNames))]
	}
	return "alg" + string(rune('A'+i%26))
}

// randList is nil, empty, or n elements from gen, so null and [] both occur.
func randList[T any](rng *rand.Rand, n int, gen func(i int) T) []T {
	switch rng.IntN(8) {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = gen(i)
	}
	return xs
}

func randMembers(rng *rand.Rand, p int) [][]core.Membership {
	return randList(rng, 1+rng.IntN(p), func(int) []core.Membership {
		return randList(rng, 1+rng.IntN(p), func(int) core.Membership {
			return core.Membership{Alg: int(randInt(rng)), Score: randFloat(rng)}
		})
	})
}

// randSketch is a sketch in its decoded form (no ingest-stream key), so a
// decoded copy deep-equals it.
func randSketch(t *testing.T, rng *rand.Rand, n int) *stats.Sketch {
	t.Helper()
	s, err := stats.NewSketch(1+rng.IntN(32), rng.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Add(randFloat(rng))
	}
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if s, err = stats.DecodeSketch(raw); err != nil {
		t.Fatal(err)
	}
	return s
}

// randResult is a random document of p algorithms with N measurements
// each. It need not pass Validate: the codec must agree with encoding/json
// on every shape the struct can take.
func randResult(t *testing.T, rng *rand.Rand, sketch bool) *ResultJSON {
	p, n := 1+rng.IntN(16), 1+rng.IntN(50)
	r := &ResultJSON{Schema: ResultSchema}
	r.Names = randList(rng, p, func(i int) string { return randName(rng, i) })
	if sketch {
		r.Mode = ResultModeSketch
		r.ErrorBound = []float64{0, stats.SketchEpsilon(16), randFloat(rng)}[rng.IntN(3)]
		r.Sketches = &measure.SketchSet{Workload: randName(rng, 0)}
		r.Sketches.Sketches = randList(rng, p, func(i int) measure.SketchSample {
			s := measure.SketchSample{Name: randName(rng, i)}
			if rng.IntN(8) != 0 {
				s.Sketch = randSketch(t, rng, n)
			}
			return s
		})
	} else {
		r.Samples = &measure.SampleSet{Workload: randName(rng, 0)}
		r.Samples.Samples = randList(rng, p, func(i int) measure.Sample {
			return measure.Sample{Name: randName(rng, i), Seconds: randList(rng, n, func(int) float64 { return randFloat(rng) })}
		})
	}
	if rng.IntN(8) != 0 {
		r.Clusters = &core.ClusterResult{P: int(randInt(rng)), Reps: int(randInt(rng)), K: int(randInt(rng)), MeanK: randFloat(rng)}
		r.Clusters.Scores = randList(rng, p, func(int) []float64 {
			return randList(rng, p, func(int) float64 { return randFloat(rng) })
		})
		r.Clusters.Clusters = randMembers(rng, p)
	}
	if rng.IntN(8) != 0 {
		r.Final = &core.FinalAssignment{K: int(randInt(rng)), Classes: randMembers(rng, p)}
		r.Final.Rank = randList(rng, p, func(int) int { return int(randInt(rng)) })
		r.Final.Score = randList(rng, p, func(int) float64 { return randFloat(rng) })
	}
	r.Profiles = randList(rng, p, func(i int) decision.AlgorithmProfile {
		return decision.AlgorithmProfile{
			Name: randName(rng, i), Rank: int(randInt(rng)), Score: randFloat(rng), MeanSeconds: randFloat(rng),
			EdgeFlops: randInt(rng), AccelFlops: randInt(rng),
			EdgeJoules: randFloat(rng), AccelJoules: randFloat(rng), AccelSeconds: randFloat(rng),
		}
	})
	return r
}

// encode is the codec's encoding of r, unvalidated.
func encode(r *ResultJSON) ([]byte, error) {
	var e encoder
	err := e.result(r)
	return e.b, err
}

// TestResultCodecMatchesEncodingJSON: on randomized exact and sketch
// documents the encoder writes json.Marshal's bytes, the decoder reads
// json.Marshal's output back to the same value (nil and empty slices
// kept apart), and NaN or ±Inf fail both encoders.
func TestResultCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	for i := 0; i < 600; i++ {
		x := randResult(t, rng, i%2 == 1)
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatalf("doc %d: json.Marshal: %v", i, err)
		}
		got, err := encode(x)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			j := 0
			for j < len(got) && j < len(want) && got[j] == want[j] {
				j++
			}
			t.Fatalf("doc %d: encodings differ at byte %d:\n codec: %.80s\n  json: %.80s", i, j, got[j:], want[j:])
		}
		back, err := decodeResult(want)
		if err != nil {
			t.Fatalf("doc %d: decoding json.Marshal output: %v\n%s", i, err, want)
		}
		var ref ResultJSON
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, &ref) {
			t.Fatalf("doc %d: decoded %+v, json.Unmarshal %+v", i, back, &ref)
		}
		// Invalid UTF-8 is written as \ufffd and reads back as U+FFFD, by
		// encoding/json and the codec alike; every other document
		// round-trips to x.
		if !bytes.Contains(want, []byte(`\ufffd`)) && !reflect.DeepEqual(back, x) {
			t.Fatalf("doc %d: decode(encode(x)) != x", i)
		}
		refAgain, err := json.Marshal(&ref)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := encode(back); err != nil || !bytes.Equal(again, refAgain) {
			t.Fatalf("doc %d: re-encoding the decoded document differs from json.Marshal's (%v)", i, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(r *ResultJSON){
			func(r *ResultJSON) { r.Profiles = []decision.AlgorithmProfile{{AccelSeconds: bad}} },
			func(r *ResultJSON) { r.Samples.Samples[0].Seconds[0] = bad },
			func(r *ResultJSON) { r.ErrorBound = bad },
		} {
			r := sampleResultJSON()
			set(r)
			_, jerr := json.Marshal(r)
			_, err := encode(r)
			if jerr == nil || err == nil {
				t.Fatalf("%v: json.Marshal err = %v, codec err = %v; want both to fail", bad, jerr, err)
			}
		}
	}
}

// TestCanonicalRefusesOtherSpellings: every valid JSON spelling of a golden
// document other than its canonical one is refused, and the canonical
// bytes pass.
func TestCanonicalRefusesOtherSpellings(t *testing.T) {
	for _, g := range []struct{ path, float, respelled string }{
		{"../../testdata/result_v1_golden.json", "0.05200008411740723", "5.200008411740723e-2"},
		{"../../testdata/result_sketch_golden.json", "0.25", "2.5e-1"},
	} {
		path := g.path
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		golden := bytes.TrimSuffix(raw, []byte("\n"))
		if _, err := Canonical(golden); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		variants := map[string]string{
			"trailing newline":  string(raw),
			"space after colon": strings.Replace(string(golden), `":`, `": `, 1),
			"escaped slash":     strings.Replace(string(golden), `relperf/result`, `relperf\/result`, 1),
			"unicode escape":    strings.Replace(string(golden), `"names":["alg`, `"names":["\u0061lg`, 1),
			"unknown field":     strings.Replace(string(golden), `"names":`, `"extra":1,"names":`, 1),
			"duplicate field":   strings.Replace(string(golden), `"names":`, `"schema":"relperf/result/v1","names":`, 1),
			"empty mode":        strings.Replace(string(golden), `"names":`, `"mode":"","names":`, 1),
			"zero error bound":  strings.Replace(string(golden), `,"clusters":`, `,"error_bound":0,"clusters":`, 1),
			"float int":         strings.Replace(string(golden), `"k":4`, `"k":4.0`, 1),
			"exponent int":      strings.Replace(string(golden), `"k":4`, `"k":4e0`, 1),
			"respelled float":   strings.Replace(string(golden), g.float, g.respelled, 1),
		}
		for name, v := range variants {
			if v == string(golden) {
				t.Fatalf("%s %s: the variant equals the golden", path, name)
			}
			if _, err := Canonical([]byte(v)); err == nil {
				t.Errorf("%s %s: accepted", path, name)
			}
		}
	}
}

// TestDecodeLinearInNullRows: a null where a number array may stand costs
// the decoder no look-ahead, so 3·10⁵ null score rows — a 1.5 MB document
// any unauthenticated replica push could send — decode and are refused in
// milliseconds. Sizing each row by the commas up to the next ']', which
// for a null row is the end of the enclosing array, scanned ~10¹¹ bytes.
func TestDecodeLinearInNullRows(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/result_v1_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	const key = `"scores":`
	i := bytes.Index(golden, []byte(key)) + len(key)
	j := bytes.Index(golden, []byte(`,"clusters":[[`))
	if i < len(key) || j < i {
		t.Fatal("golden holds no scores matrix")
	}
	const rows = 300_000
	doc := fmt.Appendf(nil, "%s[%snull]%s", golden[:i], bytes.Repeat([]byte("null,"), rows-1), golden[j:])
	start := time.Now()
	if _, err := Canonical(doc); err == nil {
		t.Fatal("null score rows accepted")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("decoding %d null rows took %v: not linear", rows, took)
	}
}
