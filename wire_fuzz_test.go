package relperf

// Fuzz harness for the relperf/result/v1 wire decoder: arbitrary bytes
// must never panic UnmarshalResultWire, and any document it accepts must
// be its own re-encoding — the byte-identity the fleet store, snapshots
// and HTTP cache hits are built on. Run continuously with:
//
//	go test -run '^$' -fuzz '^FuzzUnmarshalResultWire$' -fuzztime 30s .

import (
	"bytes"
	"os"
	"testing"
)

func FuzzUnmarshalResultWire(f *testing.F) {
	golden, err := os.ReadFile(goldenResultPath)
	if err != nil {
		f.Fatal(err)
	}
	golden = bytes.TrimSuffix(golden, []byte("\n"))
	f.Add(golden)
	f.Add([]byte(`{"schema":"relperf/result/v1"}`))
	f.Add([]byte(`{"schema":"relperf/result/v0","names":[]}`))
	f.Add([]byte(`{"schema":"relperf/result/v1","names":["a"],"samples":{"workload":"w","samples":[{"name":"a","seconds":[1]}]},"clusters":null,"final":null,"profiles":null}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	// Two other spellings of the golden document, each the same result:
	// a space after the first colon, and 0.052… written as 5.2…e-2.
	for _, v := range [][]byte{
		bytes.Replace(golden, []byte(`":`), []byte(`": `), 1),
		bytes.Replace(golden, []byte(`0.05200008411740723`), []byte(`5.200008411740723e-2`), 1),
	} {
		if bytes.Equal(v, golden) {
			f.Fatal("seed setup: no substitution happened")
		}
		if _, err := UnmarshalResultWire(v); err == nil {
			f.Fatalf("non-canonical seed accepted: %.60s", v)
		}
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := UnmarshalResultWire(data)
		if err != nil {
			return // malformed input must error, and it did
		}
		b1, err := res.MarshalWire()
		if err != nil {
			t.Fatalf("accepted document fails to re-marshal: %v", err)
		}
		if !bytes.Equal(b1, data) {
			t.Fatalf("accepted a document that is not its own re-encoding:\n input: %s\nre-enc: %s", data, b1)
		}
	})
}
