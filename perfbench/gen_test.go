package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestFixtureIsAPureFunctionOfTheSeed(t *testing.T) {
	build := func(seed uint64) (*fixture, []byte, []byte) {
		t.Helper()
		fx, err := buildFixture(filepath.Join(t.TempDir(), "fx"), seed, 60)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(fx.dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(filepath.Join(fx.dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		return fx, snap, log
	}
	a, snapA, walA := build(7)
	b, snapB, walB := build(7)
	if !reflect.DeepEqual(a.sorted, b.sorted) {
		t.Fatal("same seed, different store index")
	}
	if !bytes.Equal(snapA, snapB) || !bytes.Equal(walA, walB) {
		t.Fatal("same seed, different data directory bytes")
	}
	c, _, _ := build(8)
	if reflect.DeepEqual(a.sorted, c.sorted) {
		t.Fatal("different seeds, same store index")
	}
	if len(a.sorted) != 60 {
		t.Fatalf("fixture holds %d distinct studies, want 60", len(a.sorted))
	}
	perMode := map[string]int{}
	for _, st := range a.studies {
		perMode[st.Mode]++
	}
	if perMode[modeExact] != 36 || perMode[modeMatrix] != 12 || perMode[modeSketch] != 12 {
		t.Fatalf("fixture mode mix %v, want 36/12/12", perMode)
	}
}

// opKey flattens an op sequence to what the daemon would receive.
func opKey(ops []op) [][]byte {
	out := make([][]byte, len(ops))
	for i, o := range ops {
		k := append([]byte(nil), o.body...)
		if o.stream {
			k = append(k, "|stream"...)
		}
		out[i] = append(k, byte(o.kind), byte(o.fx), byte(o.fx>>8), byte(o.cursor))
	}
	return out
}

func TestOpsAreAPureFunctionOfTheSeed(t *testing.T) {
	gens := map[string]func(seed uint64) ([]op, error){
		wlCold:   func(seed uint64) ([]op, error) { return genCold(seed, 48, map[string]bool{}) },
		wlIngest: func(seed uint64) ([]op, error) { return genIngest(seed, 6, map[string]bool{}) },
		wlWarm:   func(seed uint64) ([]op, error) { return genWarm(seed, 200, 1000), nil },
	}
	for name, gen := range gens {
		a, err := gen(3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(3)
		c, _ := gen(4)
		if !reflect.DeepEqual(opKey(a), opKey(b)) {
			t.Errorf("%s: same seed, different op sequence", name)
		}
		if reflect.DeepEqual(opKey(a), opKey(c)) {
			t.Errorf("%s: different seeds, same op sequence", name)
		}
	}
}

func TestColdComputeMixIsExactPerBlock(t *testing.T) {
	ops, err := genCold(5, 10*len(coldDeck), map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{}
	for _, c := range coldDeck {
		want[c]++
	}
	seen := map[string]bool{}
	for b := 0; b < len(ops); b += len(coldDeck) {
		got, streams := map[int]int{}, 0
		for _, o := range ops[b : b+len(coldDeck)] {
			got[o.class]++
			if o.stream {
				streams++
			}
			if seen[o.studies[0].FP] {
				t.Fatalf("study %s drawn twice", o.studies[0].FP)
			}
			seen[o.studies[0].FP] = true
		}
		if !reflect.DeepEqual(got, want) || streams != coldStreamPerBlock {
			t.Fatalf("block %d: classes %v streams %d, want %v and %d", b/len(coldDeck), got, streams, want, coldStreamPerBlock)
		}
	}
}

func TestWarmReadMixIsExactPerBlock(t *testing.T) {
	ops := genWarm(5, 10*len(warmDeck), 500)
	want := map[int]int{}
	for _, k := range warmDeck {
		want[k]++
	}
	for b := 0; b < len(ops); b += len(warmDeck) {
		got := map[int]int{}
		for _, o := range ops[b : b+len(warmDeck)] {
			got[o.kind]++
			if o.fx < 0 || o.fx >= 500 {
				t.Fatalf("key %d outside the fixture", o.fx)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d: kinds %v, want %v", b/len(warmDeck), got, want)
		}
	}
}

func TestBucketQuantileInterpolatesInsideTheBucket(t *testing.T) {
	bs := []bucket{{0.001, 0}, {0.01, 80}, {0.1, 100}, {math.Inf(1), 100}}
	est, low := bucketQuantile(bs, 0.5)
	if low != 0.001 || est <= 0.001 || est > 0.01 {
		t.Fatalf("p50 = %v from %v, want inside (0.001, 0.01]", est, low)
	}
	if est, low = bucketQuantile(bs, 0.99); low != 0.01 || est > 0.1 {
		t.Fatalf("p99 = %v from %v, want inside (0.01, 0.1]", est, low)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := tracer{on: true}
	ms := time.Millisecond
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 5 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Name: "c", Start: 6 * ms, End: 7 * ms},
	}
	got := tr.selfTimes()
	want := []time.Duration{3 * ms, 3 * ms, 3 * ms, 1 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}
